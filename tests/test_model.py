import numpy as np
import pytest

from desklora.errors import ConfigError, ContractError, DimensionError, FormatError
from desklora.lora import LoraConfig, apply_adapter_state, dumps_adapters, loads_adapters
from desklora.model import (
    ModelConfig,
    TransformerModel,
    build,
    load_model,
    save_model,
    token_has_diacritic,
)
from desklora.numcore import (
    DOUBLE, FULL, Parameter, Rng, RowRngs, backward, metering, no_grad,
)
from desklora.quant import quantize


def tiny_cfg(**kw):
    base = dict(
        vocab_size=256,
        d_model=32,
        n_heads=4,
        n_layers=2,
        d_ffn=128,
        max_seq_len=32,
        lora=LoraConfig(r=4, dropout=0.0),
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=16, d_model=30, n_heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=16, d_model=32, n_heads=4, max_seq_len=0)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=0)
        for constant_key in ("rope_base", "quant_block_size", "double_quant"):
            with pytest.raises(ConfigError):
                ModelConfig.from_dict({"vocab_size": 16, constant_key: 1})

    def test_round_trip_dict(self):
        cfg = tiny_cfg(diacritic_bias=0.5)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestBuild:
    def test_forward_shape(self):
        m = build(tiny_cfg(), Rng(0))
        logits = m.forward_ids(np.arange(8))
        assert logits.shape == (8, 256)

    def test_same_seed_bit_identical(self):
        ids = np.arange(8)
        a = build(tiny_cfg(), Rng(5)).forward_ids(ids)
        b = build(tiny_cfg(), Rng(5)).forward_ids(ids)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        ids = np.arange(8)
        a = build(tiny_cfg(), Rng(5)).forward_ids(ids)
        b = build(tiny_cfg(), Rng(6)).forward_ids(ids)
        assert not np.array_equal(a, b)

    def test_parameter_count_closed_form(self):
        cfg = tiny_cfg()
        m = build(cfg, Rng(0))
        d, L, r = cfg.d_model, cfg.n_layers, cfg.lora.r
        params = m.trainable_parameters()
        numel = {name: p.value.size for name, p in params}
        assert len(numel) == len(params)  # names are unique

        def total(pick):
            return sum(n for name, n in numel.items() if pick(name))

        embedding = cfg.vocab_size * d
        norms = L * 4 * d + 2 * d
        adapters = L * 4 * (r * (d + d))
        frozen = L * (4 * d * d + 2 * cfg.d_ffn * d)
        assert numel["embedding"] == embedding
        assert total(lambda name: ".ln" in name or name.startswith("lnf_")) == norms
        assert total(lambda name: ".lora_" in name) == adapters
        assert sum(numel.values()) == embedding + norms + adapters
        assert [name for name, _ in m.frozen_tensors()] == [
            f"layer{i}.{tag}" for i in range(L) for tag in ("q", "k", "v", "o", "w1", "w2")]
        assert sum(q.numel for _, q in m.frozen_tensors()) == frozen
        trained = embedding + norms + adapters  # every tensor the optimizer updates
        assert m.trainable_fraction() == trained / (trained + frozen)

    def test_sequence_length_enforced(self):
        m = build(tiny_cfg(max_seq_len=8), Rng(0))
        with pytest.raises(ContractError):
            m.forward_ids(np.arange(9))

    def test_id_overflow_rejected(self):
        m = build(tiny_cfg(), Rng(0))
        with pytest.raises(IndexError):
            m.forward_ids(np.array([0, 5, 256]))


class TestForwardSemantics:
    def test_causality(self):
        m = build(tiny_cfg(), Rng(1))
        ids = np.array(Rng(2).integers(0, 256, (12,)))
        full = m.forward_ids(ids)
        ids2 = ids.copy()
        ids2[7:] = 3
        assert np.array_equal(m.forward_ids(ids2)[:7], full[:7])

    def test_zero_bias_matches_unbiased_model(self):
        ids = np.arange(10)
        flags = np.zeros(256, dtype=bool)
        flags[3] = True
        m0 = build(tiny_cfg(diacritic_bias=0.0), Rng(3), flags)
        plain = build(tiny_cfg(diacritic_bias=0.0), Rng(3))
        assert np.array_equal(m0.forward_ids(ids), plain.forward_ids(ids))

    def test_bias_shifts_attention(self):
        ids = np.arange(10)
        flags = np.zeros(256, dtype=bool)
        flags[0] = True
        biased = build(tiny_cfg(diacritic_bias=5.0), Rng(3), flags)
        plain = build(tiny_cfg(diacritic_bias=0.0), Rng(3), flags)
        out_b = biased.forward_ids(ids)
        out_p = plain.forward_ids(ids)
        assert not np.array_equal(out_b, out_p)

    def test_nonzero_bias_needs_one_flag_per_token(self):
        with pytest.raises(ConfigError):
            build(tiny_cfg(diacritic_bias=0.5), Rng(3))
        with pytest.raises(ConfigError):
            build(tiny_cfg(diacritic_bias=0.5), Rng(3), np.zeros(255, dtype=bool))

    def test_logit_finiteness_many_seeds(self):
        m = build(tiny_cfg(n_layers=1, d_model=16, d_ffn=32, lora=LoraConfig(r=2, dropout=0.0)), Rng(4))
        for seed in range(1000):
            ids = np.array(Rng(seed).integers(0, 256, (6,)))
            logits = m.forward_ids(ids)
            assert np.all(np.isfinite(logits))

    def test_loss_scalar_and_finite(self):
        m = build(tiny_cfg(), Rng(5))
        loss = m.loss(np.arange(9))
        assert loss.value.size == 1
        assert np.isfinite(loss.value.item())

    def test_eval_forward_builds_no_tape(self):
        m = build(tiny_cfg(), Rng(5))
        with no_grad():
            node = m.forward(np.arange(4))
        assert node.parents == ()
        assert node.grad_fn is None

    def test_one_tape_node_per_linear_layer(self):
        """A micro-batch loss at the deskbench `finetune` shape records 29 op
        outputs: per block layer norm x2, six frozen linear layers, attention,
        GELU and two residual adds; then the gather, the final norm, the tied
        head's transpose and matmul, and the cross-entropy."""

        class CountingMeter:
            calls = 0

            def charge(self, nbytes):
                self.calls += 1

        cfg = ModelConfig(vocab_size=512, d_model=64, n_heads=4, n_layers=2, d_ffn=256,
                          max_seq_len=48, lora=LoraConfig(r=8, dropout=0.05))
        m = build(cfg, Rng(1))
        windows = np.array(Rng(2).integers(0, 512, (8, 49)))
        meter = CountingMeter()
        with metering(meter):
            m.loss(windows, rng=RowRngs(Rng(3).split("drop", bi) for bi in range(8)))
        assert meter.calls <= 35


class TestGradients:
    def test_full_model_gradient_check(self):
        """Embedding gradient vs central differences on a 1-layer double model.

        B is drawn so that scaling * B ~ N(0, 0.3^2): a branch scaled by
        alpha/r = 16 on top of std 0.3 saturates attention, and the central
        difference then carries truncation error from the softmax's huge
        higher derivatives.
        """
        cfg = ModelConfig(
            vocab_size=9, d_model=8, n_heads=2, n_layers=1, d_ffn=16,
            max_seq_len=8, dtype=DOUBLE, lora=LoraConfig(r=2, dropout=0.0),
        )
        m = build(cfg, Rng(6))
        for layer in m.adapted_layers():
            std = 0.3 / layer.adapter.scaling
            layer.adapter.b.assign(
                Rng(7).split(layer.name).normal(layer.adapter.b.value.shape, std=std)
            )
        window = np.array([1, 4, 2, 7, 3, 8, 5])
        m.zero_grads()
        loss = m.loss(window)
        backward(loss)
        emb = m.embedding
        ana = emb.grad.copy()
        base_vals = emb.value.copy()
        h = 1e-5
        worst = 0.0
        for i in np.ndindex(*ana.shape):
            for sign in (1.0, -1.0):
                vals = base_vals.copy()
                vals[i] += sign * h
                emb.assign(vals)
                with no_grad():
                    v = m.loss(window).value.item()
                if sign > 0:
                    fp = v
                else:
                    fm = v
            fd = (fp - fm) / (2 * h)
            worst = max(worst, abs(ana[i] - fd) / (abs(ana[i]) + 1e-8))
        emb.assign(base_vals)
        assert worst < 1e-4

    def test_adapter_grads_flow_base_frozen(self):
        m = build(tiny_cfg(), Rng(8))
        before = m.base_bytes()
        m.zero_grads()
        backward(m.loss(np.arange(9)))
        for layer in m.adapted_layers():
            assert layer.adapter.b.grad is not None
        assert m.embedding.grad is not None
        assert m.base_bytes() == before


class TestBatch:
    """A [B, T] batch is one graph whose rows match the rows run one at a time."""

    @staticmethod
    def model(dtype):
        flags = np.arange(256) % 3 == 0
        m = build(tiny_cfg(dtype=dtype, diacritic_bias=0.5, lora=LoraConfig(r=4, dropout=0.05)),
                  Rng(6), flags)
        for layer in m.adapted_layers():  # a nonzero B, so every adapter gets a gradient
            b = Rng(7).split(layer.name).normal(layer.adapter.b.value.shape, std=0.02)
            layer.adapter.b.assign(b)
        return m

    @pytest.mark.parametrize("dtype, tol, grad_tol", [(FULL, 1e-6, 1e-5), (DOUBLE, 1e-12, 1e-11)])
    def test_batched_loss_is_the_mean_of_row_losses(self, dtype, tol, grad_tol):
        m = self.model(dtype)
        windows = np.array(Rng(8).integers(0, 256, (4, 13)))
        streams = [Rng(9).split("drop", bi) for bi in range(4)]
        m.zero_grads()
        batched = m.loss(windows, rng=RowRngs(streams))
        backward(batched)
        batched_grads = {n: p.grad.copy() for n, p in m.trainable_parameters()}
        m.zero_grads()
        row_losses = []
        for window, stream in zip(windows, streams):
            loss = m.loss(window, rng=stream)
            backward(loss)  # sums each row's gradient into `grad`
            row_losses.append(loss.value.item())
        mean = np.mean(row_losses)
        assert abs(batched.value.item() - mean) <= tol * abs(mean)
        for name, p in m.trainable_parameters():
            rows_mean = p.grad / len(streams)
            err = np.max(np.abs(batched_grads[name] - rows_mean))
            assert err <= grad_tol * np.max(np.abs(rows_mean)), name

    @pytest.mark.parametrize("dtype, tol", [(FULL, 1e-6), (DOUBLE, 1e-12)])
    def test_batched_forward_rows_match_single_rows(self, dtype, tol):
        m = self.model(dtype)
        ids = np.array(Rng(10).integers(0, 256, (3, 10)))
        with no_grad():
            batched = m.forward(ids).value
        assert batched.shape == (3, 10, 256)
        for row, logits in zip(ids, batched):
            single = m.forward_ids(row)
            assert np.max(np.abs(logits - single)) <= tol * np.max(np.abs(single))

    def test_row_streams_must_match_the_batch(self):
        m = self.model(FULL)
        with pytest.raises(DimensionError):
            m.loss(np.zeros((3, 9), dtype=np.int64), rng=RowRngs([Rng(0), Rng(1)]))


class TestDiacriticMask:
    def test_byte_scan_matches_codepoint_rule(self):
        cases = {
            "كَتَبَ".encode("utf-8"): True,
            "كتب".encode("utf-8"): False,
            "ٰ".encode("utf-8"): True,
            "ً".encode("utf-8"): True,
            "ٟ".encode("utf-8"): True,
            "٠".encode("utf-8"): False,  # digit just past the range
            b"": False,
        }
        for bs, expected in cases.items():
            assert token_has_diacritic(bs) == expected
            decoded = bs.decode("utf-8", errors="ignore")
            by_codepoint = any(0x064B <= ord(c) <= 0x065F or ord(c) == 0x0670 for c in decoded)
            assert token_has_diacritic(bs) == by_codepoint

    def test_mask_independent_of_position(self):
        table = ["كَ".encode("utf-8"), b"abc"] + [b"x"] * 254
        flags = [token_has_diacritic(bs) for bs in table]
        m = build(tiny_cfg(diacritic_bias=0.5), Rng(0), flags)
        assert m.key_bias(np.array([0, 1, 0])).tolist() == [0.5, 0.0, 0.5]
        assert m.key_bias(np.array([1, 2])) is None


class TestCheckpointIO:
    def test_full_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        m = build(cfg, Rng(10))
        # make adapters non-trivial so the adapter file matters
        for layer in m.adapted_layers():
            layer.adapter.b.assign(Rng(11).split(layer.name).normal(layer.adapter.b.value.shape, std=0.1))
        ids = np.arange(12)
        expected = m.forward_ids(ids)

        save_model(m, tmp_path / "model.qnf4")
        (tmp_path / "adapters.lora").write_bytes(dumps_adapters(m.adapted_layers(), cfg.lora))

        m2 = load_model(tmp_path / "model.qnf4")
        apply_adapter_state(m2.adapted_layers(), loads_adapters((tmp_path / "adapters.lora").read_bytes()))
        assert np.array_equal(m2.forward_ids(ids), expected)
        assert m2.base_bytes() == m.base_bytes()

    def test_biased_model_reloads_with_its_flags(self, tmp_path):
        flags = np.zeros(256, dtype=bool)
        flags[[2, 5]] = True

        def trained(bias):
            m = build(tiny_cfg(diacritic_bias=bias), Rng(10), flags)
            for layer in m.adapted_layers():
                b = Rng(11).split(layer.name).normal((32, 4), std=0.1)
                layer.adapter.b.assign(b)
            return m

        m = trained(2.0)
        save_model(m, tmp_path / "model.qnf4")
        m2 = load_model(tmp_path / "model.qnf4")
        state = loads_adapters(dumps_adapters(m.adapted_layers(), m.cfg.lora))
        apply_adapter_state(m2.adapted_layers(), state)
        ids = np.array([1, 5, 7, 2, 9, 4])
        assert np.array_equal(m2.diacritic_flags, flags)
        assert np.array_equal(m2.forward_ids(ids), m.forward_ids(ids))
        assert not np.array_equal(m2.forward_ids(ids), trained(0.0).forward_ids(ids))

    def test_double_model_reloads_with_double_adapters(self, tmp_path):
        m = build(tiny_cfg(dtype=DOUBLE), Rng(10))
        b = Rng(11).normal((32, 4), std=0.1).astype(np.float32)
        for layer in m.adapted_layers():
            layer.adapter.b.assign(b)
        save_model(m, tmp_path / "model.qnf4")
        m2 = load_model(tmp_path / "model.qnf4")
        state = loads_adapters(dumps_adapters(m.adapted_layers(), m.cfg.lora))
        apply_adapter_state(m2.adapted_layers(), state)
        for old, new in zip(m.adapted_layers(), m2.adapted_layers()):
            for p_old, p_new in ((old.adapter.a, new.adapter.a), (old.adapter.b, new.adapter.b)):
                assert p_new.value.dtype == np.float64
                assert np.array_equal(p_new.value, p_old.value.astype(np.float32))
        for layer in (layer for blk in m2.blocks for layer in blk.frozen()):
            assert layer.dtype == DOUBLE and layer.weight().dtype == np.float64

    @pytest.mark.parametrize("method, edit, match", [
        ("masters", lambda ms: ms[:-1], "no tensor named 'lnf_b'"),
        ("masters", lambda ms: [*ms, Parameter(np.zeros(3), FULL, name="extra")],
         r"unexpected tensors \['extra'\]"),
        ("masters", lambda ms: [*ms[:-1], Parameter(np.zeros(33), FULL, name="lnf_b")],
         "'lnf_b' has shape"),
        ("masters", lambda ms: [*ms, ms[0]], "'embedding' appears twice"),
        ("frozen_tensors", lambda fs: fs[:-1], "no tensor named 'layer1.w2'"),
        ("frozen_tensors", lambda fs: [*fs, ("layer2.q", fs[0][1])],
         r"unexpected tensors \['layer2.q'\]"),
        ("frozen_tensors", lambda fs: [*fs[:-1], ("layer1.w2", quantize(np.zeros((8, 8))))],
         "'layer1.w2' has shape"),
    ])
    def test_missing_extra_or_misshapen_tensor_rejected(self, tmp_path, monkeypatch, method, edit, match):
        m = build(tiny_cfg(), Rng(10))
        listed = getattr(m, method)()
        monkeypatch.setattr(m, method, lambda: edit(listed))
        save_model(m, tmp_path / "model.qnf4")
        with pytest.raises(FormatError, match=match):
            load_model(tmp_path / "model.qnf4")

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        m = build(tiny_cfg(), Rng(12))
        save_model(m, tmp_path / "a.qnf4")
        save_model(m, tmp_path / "b.qnf4")
        assert (tmp_path / "a.qnf4").read_bytes() == (tmp_path / "b.qnf4").read_bytes()
