import numpy as np
import pytest

from desklora import lora
from desklora.errors import ConfigError, DimensionError, FormatError
from desklora.lora import (
    AdaptedLinear,
    LoraConfig,
    apply_adapter_state,
    attach,
    dumps_adapters,
    loads_adapters,
    merge,
    trainable_fraction,
)
from desklora.numcore import FULL, GradNode, Rng, Tensor, backward, constant, sum_all
from desklora.quant import dequantize, dumps_qnf4, quantize


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

    def test_eq1_literal_disables_scaling(self):
        assert LoraConfig(eq1_literal=True).scaling == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            LoraConfig(r=0)
        with pytest.raises(ConfigError):
            LoraConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            LoraConfig.from_dict({"r": 4, "targets": ["Q", "V"]})

    def test_rank_too_large(self):
        base = quantize(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ConfigError):
            attach(base, LoraConfig(r=8), Rng(0))


class TestIdentityAtInit:
    def test_b_starts_zero(self):
        layer, _ = make_layer()
        assert np.all(layer.adapter.b.value.data == 0)

    def test_fresh_adapter_is_identity(self):
        layer, _ = make_layer(seed=3)
        x = Rng(1).normal((5, 16))
        y = lora.forward(layer, constant(x, FULL)).value.data
        base = dequantize(layer.base)
        assert np.array_equal(y, x.astype(np.float32) @ base.T)

    def test_eval_calls_bit_identical(self):
        layer, _ = make_layer(drop=0.5)
        x = constant(Rng(2).normal((3, 16)), FULL)
        y1 = lora.forward(layer, x, train_mode=False).value.data
        y2 = lora.forward(layer, x, train_mode=False).value.data
        assert np.array_equal(y1, y2)


class TestForward:
    def test_scalar_case(self):
        # W=2, A=3, B=4, scaling=4, x=5 -> 2*5 + 4*4*3*5 = 250
        base = quantize(np.array([[2.0]], dtype=np.float32))
        cfg = LoraConfig(r=1, alpha=4.0, dropout=0.0)
        layer = attach(base, cfg, Rng(0))
        layer.adapter.a.assign(Tensor([[3.0]], FULL))
        layer.adapter.b.assign(Tensor([[4.0]], FULL))
        y = lora.forward(layer, constant([[5.0]], FULL)).value.data
        assert y[0, 0] == pytest.approx(250.0)

    def test_shape_mismatch(self):
        layer, _ = make_layer()
        with pytest.raises(DimensionError):
            lora.forward(layer, constant(np.zeros((3, 7)), FULL))

    def test_dropout_applies_to_adapter_branch_only(self):
        layer, _ = make_layer(d_in=8, d_out=8, r=2, drop=0.99, seed=5)
        layer.adapter.b.assign(Tensor(Rng(6).normal((8, 2)), FULL))
        x = constant(np.ones((4, 8)), FULL)
        # with dropout killing essentially the whole branch, output approaches base path
        y = lora.forward(layer, x, train_mode=True, rng=Rng(7)).value.data
        base_only = x.value.data @ dequantize(layer.base).T
        # base path must be exactly present; branch contributes only where mask survived
        assert y.shape == base_only.shape

    def test_scaling_linearity(self):
        # alpha -> k*alpha with B -> B/k leaves outputs unchanged
        layer, cfg = make_layer(r=4, alpha=8.0, seed=8)
        b_vals = Rng(9).normal((16, 4))
        layer.adapter.b.assign(Tensor(b_vals, FULL))
        x = constant(Rng(10).normal((6, 16)), FULL)
        y1 = lora.forward(layer, x).value.data

        layer2, _ = make_layer(r=4, alpha=16.0, seed=8)
        layer2.adapter.b.assign(Tensor(b_vals / 2.0, FULL))
        y2 = lora.forward(layer2, x).value.data
        assert np.allclose(y1, y2, atol=1e-6)


class TestMerge:
    def test_b_zero_merges_to_base(self):
        layer, _ = make_layer()
        assert np.array_equal(merge(layer), dequantize(layer.base))

    def test_scalar_merge(self):
        base = quantize(np.array([[2.0]], dtype=np.float32))
        layer = attach(base, LoraConfig(r=1, alpha=4.0, dropout=0.0), Rng(0))
        layer.adapter.a.assign(Tensor([[3.0]], FULL))
        layer.adapter.b.assign(Tensor([[4.0]], FULL))
        assert merge(layer)[0, 0] == pytest.approx(50.0)

    def test_probe_equivalence_100_random(self):
        layer, _ = make_layer(d_in=24, d_out=16, r=8, alpha=32.0, seed=11)
        layer.adapter.b.assign(Tensor(Rng(12).normal((16, 8), std=0.1), FULL))
        merged = merge(layer)
        rng = Rng(13)
        worst = 0.0
        for _ in range(100):
            x = rng.normal((1, 24))
            adapted = lora.forward(layer, constant(x, FULL)).value.data
            direct = x.astype(np.float32) @ merged.T
            worst = max(worst, float(np.abs(adapted - direct).max()))
        assert worst < 1e-6


class TestGradientFlow:
    def test_adapter_grads_populated_base_untouched(self):
        layer, _ = make_layer(seed=14)
        x = constant(Rng(15).normal((4, 16)), FULL)
        before = dumps_qnf4(layer.base)
        y = lora.forward(layer, x)
        backward(sum_all(y))
        assert layer.adapter.a.grad is not None
        assert layer.adapter.b.grad is not None
        assert np.any(layer.adapter.b.grad.data != 0)
        assert layer.base_weight().grad is None
        assert dumps_qnf4(layer.base) == before

    def test_a_grad_zero_while_b_zero(self):
        # dL/dA = s * B^T (...) = 0 when B = 0; B still learns
        layer, _ = make_layer(seed=16)
        y = lora.forward(layer, constant(Rng(17).normal((4, 16)), FULL))
        backward(sum_all(y))
        assert np.all(layer.adapter.a.grad.data == 0)
        assert np.any(layer.adapter.b.grad.data != 0)


class TestCounting:
    def test_adapter_param_count_formula(self):
        layer, _ = make_layer(d_in=128, d_out=128, r=8)
        assert layer.adapter.n_params == 8 * (128 + 128)

    def test_model_level_count(self):
        # d=128, r=8, 4 targets/layer, 2 layers -> 2*4*(8*(128+128)) = 16384
        layers = [make_layer(d_in=128, d_out=128, r=8, seed=s)[0] for s in range(8)]
        assert sum(l.adapter.n_params for l in layers) == 16384

    def test_trainable_fraction(self):
        layers = [make_layer(d_in=32, d_out=32, r=4, seed=s)[0] for s in range(2)]
        frac = trainable_fraction(layers)
        adapters = sum(l.adapter.n_params for l in layers)
        assert frac == pytest.approx(adapters / (adapters + 2 * 32 * 32))
        assert 0 < frac < 1

    def test_zero_adapters(self):
        assert trainable_fraction([], extra_frozen=100) == 0.0


class TestCheckpoint:
    def test_round_trip(self):
        cfg = LoraConfig(r=4, alpha=8.0, dropout=0.0)
        layers = []
        for i in range(3):
            base = quantize(Rng(i).normal((16, 16), std=0.02).astype(np.float32))
            layers.append(attach(base, cfg, Rng(100 + i), name=f"layer{i}.q"))
        layers[1].adapter.b.assign(Tensor(Rng(50).normal((16, 4)), FULL))
        blob = dumps_adapters(layers, cfg)
        state = loads_adapters(blob)
        assert state["r"] == 4
        fresh = []
        for i in range(3):
            base = quantize(Rng(i).normal((16, 16), std=0.02).astype(np.float32))
            fresh.append(attach(base, cfg, Rng(999 + i), name=f"layer{i}.q"))
        apply_adapter_state(fresh, state)
        for old, new in zip(layers, fresh):
            assert np.array_equal(old.adapter.a.value.data, new.adapter.a.value.data)
            assert np.array_equal(old.adapter.b.value.data, new.adapter.b.value.data)

    def test_deterministic_bytes(self):
        layer, cfg = make_layer(seed=20)
        assert dumps_adapters([layer], cfg) == dumps_adapters([layer], cfg)

    def test_missing_layer_rejected(self):
        layer, cfg = make_layer(name="a")
        other, _ = make_layer(name="b")
        state = loads_adapters(dumps_adapters([layer], cfg))
        with pytest.raises(FormatError):
            apply_adapter_state([other], state)
