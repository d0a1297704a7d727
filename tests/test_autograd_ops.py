import math

import numpy as np
import pytest

from desklora.errors import ContractError, DimensionError
from desklora.numcore import (
    DOUBLE,
    FULL,
    KVCache,
    Parameter,
    Rng,
    add,
    backward,
    causal_attention,
    checkpoint,
    constant,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    scale,
    softmax_cross_entropy,
    storage_dtype,
    transpose,
)
from tests.numcore_oracles import finite_diff_check, gelu_expression, mul, sum_all


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


class TestLayerNorm:
    """`layer_norm` is RMS layer normalization: no centring and no bias."""

    def test_row_rms_equals_the_gain(self):
        x = np.random.default_rng(1).normal(size=(20, 64)) * 10.0
        out = layer_norm(constant(x, DOUBLE), constant(np.full(64, 1.7), DOUBLE)).value
        assert np.abs(np.sqrt((out * out).mean(axis=-1)) - 1.7).max() < 1e-6

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(2)
        x, gain = rng.normal(size=(5, 16)), constant(rng.normal(size=16), DOUBLE)
        out = layer_norm(constant(x, DOUBLE), gain, eps=1e-30).value
        for c in (1e-3, 0.37, 5.0, 1e4):
            scaled = layer_norm(constant(c * x, DOUBLE), gain, eps=1e-30).value
            assert np.allclose(scaled, out, rtol=1e-14, atol=0)

    def test_constant_row_maps_to_sign_times_gain(self):
        gain = np.random.default_rng(3).normal(size=6)
        x = np.array([[3.3] * 6, [-0.8] * 6, [1e-2] * 6])
        out = layer_norm(constant(x, DOUBLE), constant(gain, DOUBLE), eps=1e-15).value
        assert np.allclose(out, np.sign(x) * gain, rtol=0, atol=1e-9)

    def test_two_point_case(self):
        """[1, 7] has root mean square 5, so it maps to [0.2, 1.4] times the gain."""
        out = layer_norm(constant([[1.0, 7.0]], DOUBLE), constant([2.0, -1.0], DOUBLE), eps=1e-12)
        assert np.allclose(out.value, [[0.4, -1.4]], rtol=0, atol=1e-12)

    def test_float32_row_whose_squares_overflow_still_normalizes(self):
        """1e24² overflows float32; the row must not collapse to zeros."""
        x = np.array([[1e24, -3e24, 2e24, 0.0]], np.float32)
        out = layer_norm(constant(x, FULL), constant(np.ones(4), FULL)).value
        assert out.dtype == np.float32
        assert np.allclose(out, x / np.sqrt((x.astype(np.float64) ** 2).mean()), rtol=1e-6)

    def test_gain_of_another_width_rejected(self):
        with pytest.raises(DimensionError, match="gain"):
            layer_norm(constant(np.ones((2, 4)), DOUBLE), constant(np.ones(5), DOUBLE))


class TestGelu:
    @pytest.mark.parametrize("dtype", [FULL, DOUBLE])
    def test_bit_equal_to_the_plain_expression(self, dtype):
        """The in-place forward and backward round exactly as the out-of-place
        expression does, also where tanh saturates and near 1e-20."""
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.normal(size=98) * 3.0, [-40.0, -12.5, -10.01, 10.01, 12.5, 40.0],
                            rng.uniform(-5, 5, 20) * 1e-20, [0.0, -0.0, 1e-20, -1e-20]])
        x = x.astype(storage_dtype(dtype)).reshape(2, 4, 16)
        g = rng.normal(size=x.shape).astype(x.dtype)
        p = leaf(x, dtype)
        out = gelu(p)
        backward(out, seed=g)
        want_out, want_grad = gelu_expression(x, g)
        bits = np.uint32 if dtype == FULL else np.uint64
        assert out.dtype == p.grad.dtype == x.dtype
        assert np.array_equal(out.value.view(bits), want_out.view(bits))
        assert np.array_equal(p.grad.view(bits), want_grad.view(bits))


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


class TestCheckpoint:
    """`checkpoint(fn, *xs)` against the plain call of the op it wraps."""

    @staticmethod
    def attention(run, t_q, needs=(True, True, True)):
        """Attention's output and the gradients of q [2, t_q, 8], k and v [2, 6, 8]."""
        rng = np.random.default_rng(t_q)
        q, k, v = (Parameter(rng.normal(size=(2, n, 8)), FULL) for n in (t_q, 6, 6))
        for node, need in zip((q, k, v), needs):
            node.requires_grad = need
        rope = rope_tables(6, 4)
        out = run(lambda *qkv: causal_attention(*qkv, 2, rope), q, k, v)
        backward(sum_all(mul(out, constant(rng.normal(size=(2, t_q, 8)), FULL))))
        return out.value, [p.grad for p in (q, k, v)]

    @pytest.mark.parametrize("t_q", [6, 3])
    @pytest.mark.parametrize("needs", [(True, True, True), (True, False, True)])
    def test_attention_gradients_bit_identical(self, t_q, needs):
        """Each input's gradient is the plain op's; one without a gradient gets none."""
        plain = self.attention(lambda fn, *xs: fn(*xs), t_q, needs)
        ckpt = self.attention(checkpoint, t_q, needs)
        assert np.array_equal(plain[0], ckpt[0])
        for need, a, b in zip(needs, plain[1], ckpt[1]):
            assert (b is None) if not need else np.array_equal(a, b)

    def test_throwaway_forward_records_no_tape(self):
        made = []

        def fn(x):
            made.append(gelu(x))
            return made[-1]

        out = checkpoint(fn, leaf(np.linspace(-2.0, 2.0, 5)))
        assert out.requires_grad and made[0].parents == () and made[0].grad_fn is None
        backward(sum_all(out))
        assert made[1].grad_fn is not None  # the rerun records its tape

    def test_rerun_once_per_backward(self):
        calls = []

        def fn(x):
            calls.append(x)
            return gelu(x)

        x = leaf(np.linspace(-2.0, 2.0, 5))
        out = checkpoint(fn, x)
        assert len(calls) == 1
        backward(add(sum_all(out), sum_all(out)))  # two consumers, one summed gradient
        assert len(calls) == 2
        plain = leaf(np.linspace(-2.0, 2.0, 5))
        y = gelu(plain)
        backward(add(sum_all(y), sum_all(y)))
        assert np.array_equal(x.grad, plain.grad)


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
        c_right = constant(rng.normal(size=(6, 5)), DOUBLE)
        c_probe45 = constant(rng.normal(size=(4, 5)), DOUBLE)
        c_probe64 = constant(rng.normal(size=(6, 4)), DOUBLE)
        checks = [
            lambda x: probe(add(x, c_add)),
            lambda x: probe(mul(x, c_mul)),
            lambda x: probe(scale(x, 1.7)),
            lambda x: probe(gelu(x)),
            lambda x: probe(layer_norm(x, c_gain)),
            lambda x: sum_all(mul(matmul(x, c_right), c_probe45)),
            lambda x: sum_all(mul(transpose(x), c_probe64)),
        ]
        for f in checks:
            assert finite_diff_check(f, x0) < 1e-4
        c_x = constant(x0, DOUBLE)  # the gain's gradient sums over the rows
        assert finite_diff_check(lambda gain: probe(layer_norm(c_x, gain)), rng.normal(size=6)) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_attention_gradients(self, seed):
        rng = np.random.default_rng(1000 + seed)
        t_len, heads, d = 5, 2, 8
        cos, sin = rope_tables(t_len, d // heads)
        kv = constant(rng.normal(size=(t_len, d)), DOUBLE)
        vv = constant(rng.normal(size=(t_len, d)), DOUBLE)
        w = constant(rng.normal(size=(t_len, d)), DOUBLE)

        def f(x):
            return sum_all(mul(causal_attention(x, kv, vv, heads, (cos, sin)), w))

        assert finite_diff_check(f, rng.normal(size=(t_len, d))) < 1e-4

    @pytest.mark.parametrize("arg", range(3))
    def test_attention_gradients_with_fewer_queries(self, arg):
        """Queries for the last 2 of 5 positions: q's gradient has q's 2 rows,
        k's and v's all 5."""
        rng = np.random.default_rng(40 + arg)
        heads, d = 2, 8
        rope = rope_tables(5, d // heads)
        qkv = [rng.normal(size=(2, n, d)) for n in (2, 5, 5)]
        w = constant(rng.normal(size=(2, 2, d)), DOUBLE)

        def f(x):
            args = [x if i == arg else constant(a, DOUBLE) for i, a in enumerate(qkv)]
            return sum_all(mul(causal_attention(*args, heads, rope), w))

        assert finite_diff_check(f, qkv[arg]) < 1e-4

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
        rope = rope_tables(t_len, d // heads)

        def attend(k, v):
            return causal_attention(constant(q, DOUBLE), constant(k, DOUBLE), constant(v, DOUBLE),
                                    heads, rope).value

        out1 = attend(k, v)
        k2, v2 = k.copy(), v.copy()
        k2[4:], v2[4:] = 0.0, 99.0
        assert np.array_equal(out1[:4], attend(k2, v2)[:4])

    def test_query_and_key_shapes_checked(self):
        rope = rope_tables(6, 4)
        k = constant(np.ones((2, 5, 8)), DOUBLE)
        for q_shape in ((2, 6, 8), (2, 0, 8), (2, 3, 4), (1, 3, 8), (3, 8), (8,)):
            with pytest.raises(DimensionError):
                causal_attention(constant(np.ones(q_shape), DOUBLE), k, k, 2, rope)
        with pytest.raises(DimensionError):
            causal_attention(k, k, constant(np.ones((2, 4, 8)), DOUBLE), 2, rope)

    def test_rope_table_is_required(self):
        """Attention always rotates its queries and keys; there is no call
        without a rope table."""
        x = constant(np.random.default_rng(1).normal(size=(4, 8)), DOUBLE)
        with pytest.raises(TypeError, match="rope"):
            causal_attention(x, x, x, 2)


def attend(qkv, t_q, precision, cache=None):
    """`causal_attention` of 2 heads with queries for the last `t_q` positions."""
    q, k, v = (constant(a, precision) for a in qkv)
    q = constant(q.value[:, q.shape[1] - t_q:], precision)
    return causal_attention(q, k, v, 2, rope_tables(16, 4), cache).value


def filled_cache(lengths, dtype):
    """A 2-head cache of len(lengths) rows whose every slot holds random values,
    at the given lengths."""
    rng = np.random.default_rng(11)
    shape = (len(lengths), 2, 16, 4)
    return KVCache(rng.normal(size=shape).astype(dtype), rng.normal(size=shape).astype(dtype),
                   np.asarray(lengths, dtype=np.int64))


def copy_cache(c):
    return KVCache(c.keys.copy(), c.values.copy(), c.lengths.copy())


class TestFewerQueries:
    """Queries for the last T_q of T fed positions give the full call's last
    T_q rows. For T_q >= 2 they are bit-equal. A single query's products run
    as numpy matrix-vector products, which may round otherwise by a few ulps."""

    @staticmethod
    def same(got, want, t_q):
        if t_q > 1:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 8 * np.finfo(got.dtype).eps * np.abs(want).max()

    @pytest.mark.parametrize("dtype", [FULL, DOUBLE])
    @pytest.mark.parametrize("lengths", [None, [0, 0, 0], [5, 5, 5], [0, 3, 7]],
                             ids=["uncached", "fill", "shared-start", "per-row"])
    def test_last_rows_of_the_full_call(self, dtype, lengths):
        rng = np.random.default_rng(12)
        np_dtype = storage_dtype(dtype)
        qkv = [rng.normal(size=(3, 6, 8)).astype(np_dtype) for _ in range(3)]
        full_cache = None if lengths is None else filled_cache(lengths, np_dtype)
        full = attend(qkv, 6, dtype, full_cache)
        for t_q in (1, 2, 5):
            cache = None if lengths is None else filled_cache(lengths, np_dtype)
            got = attend(qkv, t_q, dtype, cache)
            assert got.shape == (3, t_q, 8)
            self.same(got, full[:, 6 - t_q:], t_q)
            if cache is not None:  # every fed key and value is written alike
                assert np.array_equal(cache.keys, full_cache.keys)
                assert np.array_equal(cache.values, full_cache.values)

    @pytest.mark.parametrize("dtype", [FULL, DOUBLE])
    @pytest.mark.parametrize("t_len", [1, 3])
    def test_shared_start_equals_the_per_row_path(self, dtype, t_len):
        """Rows 0 and 1 at length 5 alone take the shared-start slices; beside
        a row at length 4 they take the per-row gathers, over as many keys.
        Outputs and cache writes agree bit for bit."""
        rng = np.random.default_rng(13)
        np_dtype = storage_dtype(dtype)
        qkv = [rng.normal(size=(3, t_len, 8)).astype(np_dtype) for _ in range(3)]
        mixed = filled_cache([5, 5, 4], np_dtype)
        shared = copy_cache(mixed).rows(0, 2)
        for t_q in range(1, t_len + 1):
            per_row = attend(qkv, t_q, dtype, copy_cache(mixed))
            alone = copy_cache(shared)
            got = attend([a[:2] for a in qkv], t_q, dtype, alone)
            assert np.array_equal(got, per_row[:2])
        attend(qkv, t_len, dtype, mixed)
        assert np.array_equal(alone.keys, mixed.keys[:2])
        assert np.array_equal(alone.values, mixed.values[:2])


class TestDeterminism:
    def test_ops_bit_identical(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 8))

        def run():
            a = constant(x, FULL)
            b = gelu(matmul(a, a))
            c = dropout(b, 0.4, Rng(99).split("op"))
            return c.value

        assert np.array_equal(run(), run())
