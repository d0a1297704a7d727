import dataclasses

import numpy as np
import pytest

from desklora import lora
from desklora.errors import ConfigError, DimensionError, FormatError
from desklora.lora import (
    FrozenLinear,
    LoraConfig,
    apply_adapter_state,
    attach,
    dumps_adapters,
    loads_adapters,
    merge,
)
from desklora.model import ModelConfig, build
from desklora.numcore import (
    FULL, Parameter, Rng, RowRngs, add, backward, constant, dropout, matmul, mul, scale,
    sum_all, transpose,
)
from desklora.numcore.ops import dropout_factor
from desklora.quant import dequantize, quantize
from tests.conftest import merge_agreement


def make_layer(d_in=16, d_out=16, r=4, alpha=8.0, drop=0.0, seed=0, name="l0.q"):
    rng = Rng(seed)
    w = rng.split("base").normal((d_out, d_in), std=0.02)
    base = quantize(w.astype(np.float32), 64)
    cfg = LoraConfig(r=r, alpha=alpha, dropout=drop)
    return attach(base, cfg, rng.split("adapter"), name=name), cfg


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = LoraConfig()
        assert cfg.r == 8
        assert cfg.alpha == 32.0
        assert cfg.dropout == 0.05
        assert cfg.scaling == 4.0  # alpha / r

    def test_validation(self):
        with pytest.raises(ConfigError):
            LoraConfig(r=0)
        with pytest.raises(ConfigError):
            LoraConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            LoraConfig.from_dict({"r": 4, "targets": ["Q", "V"]})
        with pytest.raises(ConfigError):  # the scaling is always alpha / r
            LoraConfig.from_dict({"r": 4, "eq1_literal": True})

    def test_rank_too_large(self):
        base = quantize(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ConfigError):
            attach(base, LoraConfig(r=8), Rng(0))


class TestIdentityAtInit:
    def test_b_starts_zero(self):
        layer, _ = make_layer()
        assert np.all(layer.adapter.b.value == 0)

    def test_fresh_adapter_is_identity(self):
        layer, _ = make_layer(seed=3)
        x = Rng(1).normal((5, 16))
        y = lora.forward(layer, constant(x, FULL)).value
        base = dequantize(layer.q)
        assert np.array_equal(y, x.astype(np.float32) @ base.T)

    def test_eval_calls_bit_identical(self):
        layer, _ = make_layer(drop=0.5)
        x = constant(Rng(2).normal((3, 16)), FULL)
        y1 = lora.forward(layer, x).value
        y2 = lora.forward(layer, x).value
        assert np.array_equal(y1, y2)


class TestForward:
    def test_scalar_case(self):
        # W=2, A=3, B=4, scaling=4, x=5 -> 2*5 + 4*4*3*5 = 250
        base = quantize(np.array([[2.0]], dtype=np.float32))
        cfg = LoraConfig(r=1, alpha=4.0, dropout=0.0)
        layer = attach(base, cfg, Rng(0))
        layer.adapter.a.assign([[3.0]])
        layer.adapter.b.assign([[4.0]])
        y = lora.forward(layer, constant([[5.0]], FULL)).value
        assert y[0, 0] == pytest.approx(250.0)

    def test_shape_mismatch(self):
        layer, _ = make_layer()
        with pytest.raises(DimensionError):
            lora.forward(layer, constant(np.zeros((3, 7)), FULL))

    def test_dropout_applies_to_adapter_branch_only(self):
        layer, _ = make_layer(d_in=8, d_out=8, r=2, drop=0.99, seed=5)
        layer.adapter.b.assign(Rng(6).normal((8, 2)))
        x = constant(np.ones((4, 8)), FULL)
        # with dropout killing essentially the whole branch, output approaches base path
        y = lora.forward(layer, x, rng=Rng(7)).value
        base_only = x.value @ dequantize(layer.q).T
        # base path must be exactly present; branch contributes only where mask survived
        assert y.shape == base_only.shape

    def test_scaling_linearity(self):
        # alpha -> k*alpha with B -> B/k leaves outputs unchanged
        layer, cfg = make_layer(r=4, alpha=8.0, seed=8)
        b_vals = Rng(9).normal((16, 4))
        layer.adapter.b.assign(b_vals)
        x = constant(Rng(10).normal((6, 16)), FULL)
        y1 = lora.forward(layer, x).value

        layer2, _ = make_layer(r=4, alpha=16.0, seed=8)
        layer2.adapter.b.assign(b_vals / 2.0)
        y2 = lora.forward(layer2, x).value
        assert np.allclose(y1, y2, atol=1e-6)


class TestUnfusedGraph:
    """The op equals the numcore graph it fuses, x·transpose(W) plus the scaled
    dropout(x)·transpose(A)·transpose(B), bit for bit in value and gradients: it
    calls the same matmuls on the same operand layouts, and its multiplier comes
    from the helper `numcore.dropout` uses, drawn over x's full shape."""

    @pytest.mark.parametrize("shape, rate", [((2, 5, 16), 0.3), ((3, 9, 16), 0.1),
                                             ((7, 16), 0.0), ((1, 16), 0.0)])
    def test_bit_identical_to_the_numcore_graph(self, shape, rate):
        layer, _ = make_layer(d_in=16, d_out=8, r=4, drop=rate, seed=18)
        ad = layer.adapter
        ad.b.assign(Rng(19).normal((8, 4)))
        x_value = Rng(20).normal(shape)
        probe = constant(Rng(21).normal((*shape[:-1], 8)), FULL)

        def streams():
            return RowRngs(Rng(22).split("row", i) for i in range(shape[0])) if len(shape) == 3 else None

        def fused(x):
            return lora.forward(layer, x, streams())

        def unfused(x):
            w = constant(layer.weight(), FULL)
            branch = matmul(matmul(dropout(x, rate, streams()), transpose(ad.a)), transpose(ad.b))
            return add(matmul(x, transpose(w)), scale(branch, ad.scaling))

        results = []
        for f in (fused, unfused):
            ad.a.zero_grad()
            ad.b.zero_grad()
            x = Parameter(x_value, FULL)
            y = f(x)
            backward(sum_all(mul(y, probe)))
            results.append((y.value, x.grad, ad.a.grad, ad.b.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want)
        if len(shape) == 3:
            x = constant(x_value, FULL)
            factor = dropout_factor(x.value, rate, streams())
            assert np.array_equal(dropout(x, rate, streams()).value, x.value * factor)


class TestMerge:
    def test_b_zero_merges_to_base(self):
        layer, _ = make_layer()
        assert np.array_equal(merge(layer), dequantize(layer.q))

    def test_scalar_merge(self):
        base = quantize(np.array([[2.0]], dtype=np.float32))
        layer = attach(base, LoraConfig(r=1, alpha=4.0, dropout=0.0), Rng(0))
        layer.adapter.a.assign([[3.0]])
        layer.adapter.b.assign([[4.0]])
        assert merge(layer)[0, 0] == pytest.approx(50.0)

    def test_probe_equivalence_100_random(self):
        """The adapted output and x·merge(layer)ᵀ agree with the exact x·(W + s·B·A)ᵀ
        to float32 rounding on 100 probes; dropping the scaling or applying the
        layer's dropout mask, which only an rng turns on, does not."""
        layer, _ = make_layer(d_in=24, d_out=16, r=8, alpha=32.0, drop=0.05, seed=11)
        layer.adapter.b.assign(Rng(12).normal((16, 8), std=0.1))
        merged = merge(layer)
        unscaled = FrozenLinear(layer.name, layer.q, FULL, dataclasses.replace(layer.adapter, scaling=1.0))
        rng = Rng(13)
        worst = 0.0
        for i in range(100):
            x = rng.normal((1, 24))
            adapted = lora.forward(layer, constant(x, FULL)).value
            worst = max(worst, merge_agreement(layer, x, adapted),
                        merge_agreement(layer, x, x.astype(np.float32) @ merged.T))
            wrong = (lora.forward(unscaled, constant(x, FULL)).value,
                     lora.forward(layer, constant(x, FULL), Rng(14).split(i)).value)
            assert min(merge_agreement(layer, x, y) for y in wrong) > 1.0
        assert worst < 1.0


class TestGradientFlow:
    def test_one_node_over_x_a_and_b_base_untouched(self):
        m = build(ModelConfig(vocab_size=16, d_model=16, n_heads=2, n_layers=1, d_ffn=32,
                              lora=LoraConfig(r=4)), Rng(14))
        blk = m.blocks[0]
        blk.q.adapter.b.assign(Rng(15).normal((16, 4)))
        before = m.base_bytes()
        x = constant(Rng(16).normal((4, 16)), FULL)
        y, plain = lora.forward(blk.q, x, Rng(17)), lora.forward(blk.w1, x)
        # x twice: through the base and through the branch; W is no parent
        assert y.parents == (x, x, blk.q.adapter.a, blk.q.adapter.b)
        assert plain.parents == (x,)
        backward(sum_all(y))
        assert np.any(blk.q.adapter.a.grad != 0)
        assert np.any(blk.q.adapter.b.grad != 0)
        assert m.base_bytes() == before

    def test_a_grad_zero_while_b_zero(self):
        # dL/dA = s * B^T (...) = 0 when B = 0; B still learns
        layer, _ = make_layer(seed=16)
        y = lora.forward(layer, constant(Rng(17).normal((4, 16)), FULL))
        backward(sum_all(y))
        assert np.all(layer.adapter.a.grad == 0)
        assert np.any(layer.adapter.b.grad != 0)


class TestCounting:
    def test_adapter_param_count_formula(self):
        layer, _ = make_layer(d_in=128, d_out=128, r=8)
        assert layer.adapter.n_params == 8 * (128 + 128)

    def test_model_level_count(self):
        # d=128, r=8, 4 targets/layer, 2 layers -> 2*4*(8*(128+128)) = 16384
        layers = [make_layer(d_in=128, d_out=128, r=8, seed=s)[0] for s in range(8)]
        assert sum(l.adapter.n_params for l in layers) == 16384


class TestCheckpoint:
    def test_round_trip(self):
        cfg = LoraConfig(r=4, alpha=8.0, dropout=0.0)
        layers = []
        for i in range(3):
            base = quantize(Rng(i).normal((16, 16), std=0.02).astype(np.float32))
            layers.append(attach(base, cfg, Rng(100 + i), name=f"layer{i}.q"))
        layers[1].adapter.b.assign(Rng(50).normal((16, 4)))
        blob = dumps_adapters(layers, cfg)
        state = loads_adapters(blob)
        assert state["r"] == 4
        fresh = []
        for i in range(3):
            base = quantize(Rng(i).normal((16, 16), std=0.02).astype(np.float32))
            fresh.append(attach(base, cfg, Rng(999 + i), name=f"layer{i}.q"))
        apply_adapter_state(fresh, state)
        for old, new in zip(layers, fresh):
            assert np.array_equal(old.adapter.a.value, new.adapter.a.value)
            assert np.array_equal(old.adapter.b.value, new.adapter.b.value)

    def test_deterministic_bytes(self):
        layer, cfg = make_layer(seed=20)
        assert dumps_adapters([layer], cfg) == dumps_adapters([layer], cfg)

    def test_missing_layer_rejected(self):
        layer, cfg = make_layer(name="a")
        other, _ = make_layer(name="b")
        state = loads_adapters(dumps_adapters([layer], cfg))
        with pytest.raises(FormatError):
            apply_adapter_state([other], state)
