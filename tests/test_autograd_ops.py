import math

import numpy as np
import pytest

from desklora.errors import ContractError, DimensionError
from desklora.numcore import (
    DOUBLE,
    FULL,
    Parameter,
    Rng,
    add,
    backward,
    causal_attention,
    checkpoint,
    constant,
    dropout,
    finite_diff_check,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    mul,
    no_grad,
    scale,
    softmax,
    softmax_cross_entropy,
    sum_all,
    transpose,
)


def leaf(a, dtype=DOUBLE):
    return Parameter(a, dtype)


def rope_tables(t_len, head_dim, base=10000.0):
    pos = np.arange(t_len)[:, None]
    idx = np.arange(head_dim // 2)[None, :]
    theta = pos / (base ** (2.0 * idx / head_dim))
    return np.cos(theta), np.sin(theta)


class TestMatmul:
    def test_identity(self):
        out = matmul(constant(np.eye(2), DOUBLE), constant([[1.0, 2.0], [3.0, 4.0]], DOUBLE))
        assert np.array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_product(self):
        out = matmul(constant([[1.0, 2.0], [3.0, 4.0]], DOUBLE), constant([[5.0, 6.0], [7.0, 8.0]], DOUBLE))
        assert np.array_equal(out.value, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_matrix(self):
        out = matmul(constant(np.zeros((3, 2)), DOUBLE), constant(np.ones((2, 4)), DOUBLE))
        assert np.all(out.value == 0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 2))))


class TestElementwise:
    def test_add(self):
        out = add(constant([1.0, 2.0], DOUBLE), constant([3.0, 4.0], DOUBLE))
        assert np.array_equal(out.value, [4.0, 6.0])

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(constant([1.0, 2.0]), constant([1.0, 2.0, 3.0]))

    def test_scalar_broadcast(self):
        out = mul(constant([1.0, 2.0], DOUBLE), 3.0)
        assert np.array_equal(out.value, [3.0, 6.0])

    def test_dropout_rate_zero_is_identity(self):
        x = constant(np.arange(10.0), DOUBLE)
        out = dropout(x, 0.0, Rng(0))
        assert out is x

    def test_dropout_eval_mode_is_identity(self):
        x = constant(np.arange(10.0), DOUBLE)
        out = dropout(x, 0.9)  # no rng: evaluation
        assert out is x

    def test_dropout_survivor_count_binomial(self):
        # p < 1e-4 two-sided bound for Binomial(10000, 0.5) is about +-4 sigma
        x = constant(np.ones(10000), DOUBLE)
        out = dropout(x, 0.5, Rng(1234))
        survivors = int((out.value != 0).sum())
        assert 4600 <= survivors <= 5400

    def test_dropout_deterministic_under_seed(self):
        x = constant(np.ones(100), DOUBLE)
        a = dropout(x, 0.3, Rng(5).split("here"))
        b = dropout(x, 0.3, Rng(5).split("here"))
        assert np.array_equal(a.value, b.value)

    def test_dropout_scaling(self):
        x = constant(np.ones(1000), DOUBLE)
        out = dropout(x, 0.2, Rng(0)).value
        kept = out[out != 0]
        assert np.allclose(kept, 1.0 / 0.8)

    def test_dropout_rate_validation(self):
        with pytest.raises(ContractError):
            dropout(constant([1.0]), 1.0, Rng(0))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        out = softmax_cross_entropy(constant(np.zeros((1, 4)), DOUBLE), [1])
        assert out.value.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_saturated(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1000.0
        out = softmax_cross_entropy(constant(logits, DOUBLE), [2])
        assert out.value.item() == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self):
        out = softmax_cross_entropy(constant([[1.0, 2.0, 3.0]], DOUBLE), [2])
        expected = -math.log(math.exp(3) / (math.exp(1) + math.exp(2) + math.exp(3)))
        assert out.value.item() == pytest.approx(expected, rel=1e-12)
        assert out.value.item() == pytest.approx(0.40761, abs=1e-5)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError, match="7"):
            softmax_cross_entropy(constant(np.zeros((2, 4))), [1, 7])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        s = softmax(constant(rng.normal(size=(50, 17)) * 10, DOUBLE)).value
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)


class TestLayerNorm:
    def gain_bias(self, d):
        return constant(np.ones(d), DOUBLE), constant(np.zeros(d), DOUBLE)

    def test_constant_vector_zeroed(self):
        g, b = self.gain_bias(6)
        out = layer_norm(constant(np.full((2, 6), 3.3), DOUBLE), g, b)
        assert np.allclose(out.value, 0.0, atol=1e-6)

    def test_two_point_case(self):
        g, b = self.gain_bias(2)
        out = layer_norm(constant([[1.0, 3.0]], DOUBLE), g, b, eps=1e-12)
        assert np.allclose(out.value, [[-1.0, 1.0]], atol=1e-5)

    def test_zero_gain_gives_bias(self):
        g = constant(np.zeros(4), DOUBLE)
        b = constant(np.full(4, 7.5), DOUBLE)
        out = layer_norm(constant(np.random.default_rng(0).normal(size=(3, 4)), DOUBLE), g, b)
        assert np.allclose(out.value, 7.5)

    def test_standardization_moments(self):
        # variance within 1e-5 of 1 requires input variance at least ~1
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 64)) * 2.0
        g, b = self.gain_bias(64)
        out = layer_norm(constant(x, DOUBLE), g, b).value
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-5


class TestBackward:
    def test_sum_gives_ones(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        backward(sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = leaf([1.0, 2.0])
        backward(sum_all(mul(x, x)))
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ContractError):
            backward(mul(x, x))

    def test_grad_accumulates_across_backward_calls(self):
        x = leaf([1.0, 2.0])
        backward(sum_all(x))
        backward(sum_all(x))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_shared_subexpression_accumulates(self):
        x = leaf([3.0])
        y = mul(x, x)  # used twice below
        backward(add(sum_all(y), sum_all(y)))
        assert np.allclose(x.grad, [12.0])

    def test_no_grad_detaches(self):
        x = leaf([1.0, 2.0])
        with no_grad():
            y = mul(x, x)
        assert y.parents == ()
        assert y.grad_fn is None
        assert not y.requires_grad

    def test_checkpoint_reaches_parameters_over_an_input_without_gradient(self):
        """The block's input needs no gradient, but the parameter it reads does."""
        for run in (lambda fn, x: fn(x), checkpoint):
            w = leaf([2.0])
            out = sum_all(run(lambda v: mul(v, w), constant([3.0], DOUBLE)))
            assert out.requires_grad
            backward(out)
            assert w.grad.tolist() == [3.0]

    def test_checkpoint_under_no_grad_records_nothing(self):
        w = leaf([2.0])
        with no_grad():
            out = checkpoint(lambda v: mul(v, w), constant([3.0], DOUBLE))
        assert out.parents == () and out.grad_fn is None and not out.requires_grad


class TestFiniteDifference:
    def test_linear_is_exact(self):
        err = finite_diff_check(sum_all, np.random.default_rng(0).normal(size=(4, 3)))
        assert err < 1e-10

    def test_cross_entropy(self):
        rng = np.random.default_rng(1)
        targets = [2, 0, 4]
        err = finite_diff_check(
            lambda x: softmax_cross_entropy(x, targets), rng.normal(size=(3, 5))
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(100))
    def test_every_op_gradient_fidelity(self, seed):
        """Each differentiable op against central differences, many seeds."""
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(4, 6))

        def probe(out):  # linear functional keeps FD well-conditioned
            return sum_all(mul(out, constant(w, DOUBLE)))

        x0 = rng.normal(size=(4, 6))
        c_add = constant(rng.normal(size=(4, 6)), DOUBLE)
        c_mul = constant(rng.normal(size=(4, 6)), DOUBLE)
        c_gain = constant(rng.normal(size=6), DOUBLE)
        c_bias = constant(np.zeros(6), DOUBLE)
        c_right = constant(rng.normal(size=(6, 5)), DOUBLE)
        c_probe45 = constant(rng.normal(size=(4, 5)), DOUBLE)
        c_probe64 = constant(rng.normal(size=(6, 4)), DOUBLE)
        checks = [
            lambda x: probe(add(x, c_add)),
            lambda x: probe(mul(x, c_mul)),
            lambda x: probe(scale(x, 1.7)),
            lambda x: probe(gelu(x)),
            lambda x: probe(softmax(x)),
            lambda x: probe(layer_norm(x, c_gain, c_bias)),
            lambda x: sum_all(mul(matmul(x, c_right), c_probe45)),
            lambda x: sum_all(mul(transpose(x), c_probe64)),
        ]
        for f in checks:
            assert finite_diff_check(f, x0) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_attention_gradients(self, seed):
        rng = np.random.default_rng(1000 + seed)
        t_len, heads, d = 5, 2, 8
        cos, sin = rope_tables(t_len, d // heads)
        bias = rng.normal(size=t_len)
        kv = constant(rng.normal(size=(t_len, d)), DOUBLE)
        vv = constant(rng.normal(size=(t_len, d)), DOUBLE)
        w = constant(rng.normal(size=(t_len, d)), DOUBLE)

        def f(x):
            return sum_all(mul(causal_attention(x, kv, vv, heads, (cos, sin), bias), w))

        assert finite_diff_check(f, rng.normal(size=(t_len, d))) < 1e-4

    def test_gather_rows_gradient(self):
        rng = np.random.default_rng(3)
        ids = np.array([0, 2, 2, 1])
        w = constant(rng.normal(size=(4, 5)), DOUBLE)

        def f(table):
            return sum_all(mul(gather_rows(table, ids), w))

        assert finite_diff_check(f, rng.normal(size=(3, 5))) < 1e-4

    def test_gather_rows_2d_ids_scatter_add(self):
        rng = np.random.default_rng(4)
        ids = np.array([[0, 2, 2], [1, 2, 0]])
        table = leaf(rng.normal(size=(3, 5)))
        g = rng.normal(size=(2, 3, 5))
        out = gather_rows(table, ids)
        assert np.array_equal(out.value, table.value[ids])
        backward(sum_all(mul(out, constant(g, DOUBLE))))
        expected = np.zeros((3, 5))
        for b in range(2):
            for t in range(3):
                expected[ids[b, t]] += g[b, t]
        assert np.allclose(table.grad, expected, rtol=0, atol=1e-12)


class TestAttentionSemantics:
    def test_causality(self):
        rng = np.random.default_rng(0)
        t_len, heads, d = 6, 2, 8
        q = rng.normal(size=(t_len, d))
        k = rng.normal(size=(t_len, d))
        v = rng.normal(size=(t_len, d))
        out1 = causal_attention(constant(q, DOUBLE), constant(k, DOUBLE), constant(v, DOUBLE), heads).value
        k2, v2 = k.copy(), v.copy()
        k2[4:], v2[4:] = 0.0, 99.0
        out2 = causal_attention(constant(q, DOUBLE), constant(k2, DOUBLE), constant(v2, DOUBLE), heads).value
        assert np.array_equal(out1[:4], out2[:4])

    def test_key_bias_saturation(self):
        rng = np.random.default_rng(1)
        t_len, heads, d = 5, 1, 4
        q = constant(rng.normal(size=(t_len, d)), DOUBLE)
        k = constant(rng.normal(size=(t_len, d)), DOUBLE)
        v_data = np.zeros((t_len, d))
        v_data[0] = 1.0  # only key 0 carries signal
        v = constant(v_data, DOUBLE)
        bias = np.zeros(t_len)
        bias[0] = 1e6
        out = causal_attention(q, k, v, heads, None, bias).value
        # every query should put essentially all weight on key 0
        assert np.all(out[:, 0] > 0.999)


class TestDeterminism:
    def test_ops_bit_identical(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 8))

        def run():
            a = constant(x, FULL)
            b = gelu(matmul(a, a))
            c = dropout(b, 0.4, Rng(99).split("op"))
            return softmax(c).value

        assert np.array_equal(run(), run())
