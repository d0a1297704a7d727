import dataclasses
import json
import math
import os

import numpy as np
import pytest

from desklora.arabicprep.bpe import BOS_ID, EOS_ID
from desklora.errors import BudgetError, ConfigError, ContractError, DataError, FormatError, TrainingError
from desklora.lora import LoraConfig, dumps_adapters
from desklora.model import ModelConfig, build
from desklora.numcore import (
    DOUBLE, FULL, Parameter, Rng, astype, backward, constant, dropout, scale,
)
from desklora.trainer import (
    ActivationMeter,
    AdamW,
    MemoryBudget,
    MemoryLedger,
    MetricsRecord,
    Sgd,
    TrainConfig,
    clip_gradients,
    effective_batch,
    global_grad_norm,
    load_checkpoint,
    lr_at,
    pack_windows,
    register_static_memory,
    save_checkpoint,
    train,
)
from desklora.util import sha256_json
from tests.conftest import opt8_moments


def tiny_model(seed=0, dtype=FULL, layers=2, d=32, vocab=64, max_len=24, dropout=0.0):
    cfg = ModelConfig(
        vocab_size=vocab, d_model=d, n_heads=4, n_layers=layers, d_ffn=2 * d,
        max_seq_len=max_len, dtype=dtype, lora=LoraConfig(r=4, dropout=dropout),
    )
    return build(cfg, Rng(seed))


def tiny_train_cfg(**kw):
    base = dict(
        micro_batch=1, accumulation_steps=2, lr_max=1e-3, warmup_steps=2, total_steps=6,
        max_grad_norm=1.0, seq_len=8, seed=0, checkpoint_every=3, keep_checkpoints=2,
    )
    base.update(kw)
    return TrainConfig(**base)


def fixture_windows(n=32, seq_len=8, vocab=64, seed=1):
    rng = Rng(seed)
    return np.array(rng.integers(4, vocab, (n, seq_len + 1)))


class TestSchedule:
    def cfg(self):
        return TrainConfig(lr_max=5e-5, warmup_steps=100, total_steps=10000, seq_len=8)

    def test_anchors(self):
        cfg = self.cfg()
        assert lr_at(0, cfg) == 0.0
        assert lr_at(100, cfg) == pytest.approx(5e-5, rel=1e-15)
        assert lr_at(10000, cfg) == 0.0
        assert lr_at(5050, cfg) == pytest.approx(2.5e-5, rel=1e-12)

    def test_continuity_at_warmup_boundary(self):
        cfg = self.cfg()
        warm = cfg.lr_max * cfg.warmup_steps / cfg.warmup_steps
        decay = cfg.lr_max * 0.5 * (1 + math.cos(0.0))
        assert warm == decay == lr_at(100, cfg)

    def test_non_negative_everywhere(self):
        cfg = self.cfg()
        for t in range(0, 10001, 37):
            assert lr_at(t, cfg) >= 0.0

    def test_out_of_range_rejected(self):
        cfg = self.cfg()
        with pytest.raises(ContractError):
            lr_at(-1, cfg)
        with pytest.raises(ContractError):
            lr_at(10001, cfg)

    def test_effective_batch(self):
        assert effective_batch(TrainConfig(seq_len=8)) == 16
        assert effective_batch(tiny_train_cfg(micro_batch=1, accumulation_steps=1)) == 1
        assert effective_batch(tiny_train_cfg(micro_batch=4, accumulation_steps=8)) == 32

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_steps=0, seq_len=8)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_steps=10, total_steps=10, seq_len=8)
        with pytest.raises(ConfigError):
            TrainConfig(lr_max=0.0, seq_len=8)
        with pytest.raises(ConfigError):
            TrainConfig(max_grad_norm=0.0, seq_len=8)


class TestClipping:
    def test_ratio(self):
        grads = {"w": np.array([0.6])}
        assert clip_gradients(grads, 0.3) == pytest.approx(0.5)
        assert grads["w"][0] == pytest.approx(0.3)

    def test_untouched_below_max(self):
        grads = {"w": np.array([0.2])}
        assert clip_gradients(grads, 0.3) == 1.0
        assert grads["w"][0] == 0.2

    def test_zero_norm_guard(self):
        grads = {"w": np.zeros(5)}
        assert clip_gradients(grads, 0.3) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(TrainingError):
            clip_gradients({"w": np.array([np.nan])}, 0.3)

    @pytest.mark.parametrize("seed", range(20))
    def test_post_clip_norm_bound(self, seed):
        rng = np.random.default_rng(seed)
        grads = {f"p{i}": rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-2, 4) for i in range(4)}
        clip_gradients(grads, 0.3)
        assert global_grad_norm(grads) <= 0.3 + 1e-12


class TestLedger:
    def test_exact_budget_boundary(self):
        ledger = MemoryLedger(MemoryBudget(device_bytes=1000, host_bytes=1000))
        ledger.allocate("activations", 600)
        ledger.allocate("activations", 400)
        with pytest.raises(BudgetError):
            ledger.allocate("activations", 1)

    def test_over_budget_single_alloc(self):
        ledger = MemoryLedger(MemoryBudget(device_bytes=1000, host_bytes=1000))
        with pytest.raises(BudgetError) as e:
            ledger.allocate("quantized_weights", 1001)
        assert "device" in str(e.value)
        assert e.value.breakdown["device_budget"] == 1000

    def test_failed_alloc_not_recorded(self):
        ledger = MemoryLedger(MemoryBudget(device_bytes=100, host_bytes=100))
        with pytest.raises(BudgetError):
            ledger.allocate("adapters", 200)
        assert ledger.device_total() == 0

    def test_host_device_split(self):
        ledger = MemoryLedger(MemoryBudget(device_bytes=10, host_bytes=1000))
        ledger.allocate("optimizer_states", 500)  # host side, fits
        assert ledger.host_total() == 500
        assert ledger.device_total() == 0

    def test_release_and_high_water(self):
        ledger = MemoryLedger(MemoryBudget(device_bytes=1000, host_bytes=1000))
        ledger.allocate("activations", 700)
        ledger.release("activations", 700)
        ledger.allocate("activations", 100)
        assert ledger.device_high_water == 700
        assert ledger.device_total() == 100

    def test_release_more_than_held_rejected(self):
        ledger = MemoryLedger()
        ledger.allocate("other", 10)
        with pytest.raises(ContractError):
            ledger.release("other", 11)

    def test_meter_scopes_nest(self):
        ledger = MemoryLedger()
        meter = ActivationMeter(ledger)
        small, large = constant(np.zeros(10), FULL), constant(np.zeros(100), FULL)
        with meter.scope():
            outer = scale(small, 2.0)  # a 40-byte op output
            with meter.scope():
                scale(large, 2.0)
            assert ledger.totals["activations"] == outer.value.nbytes
        assert ledger.totals["activations"] == 0
        assert ledger.device_high_water == 440

    def test_leaves_charge_nothing(self):
        ledger = MemoryLedger()
        with ActivationMeter(ledger).scope():
            Parameter(np.zeros(10), FULL)
            constant(np.zeros(10), FULL)
            tiny_model().blocks[0].w1.weight()
        assert ledger.device_high_water == 0

    @pytest.mark.parametrize("dtype, itemsize", [(FULL, 4), (DOUBLE, 8)])
    def test_dequantized_bases_charged_up_front(self, dtype, itemsize):
        model = tiny_model(dtype=dtype)
        ledger = MemoryLedger()
        register_static_memory(model, ledger)
        held = [layer.weight().nbytes for blk in model.blocks for layer in blk.frozen()]
        assert ledger.totals["dequantized_weights"] == sum(held)
        assert sum(held) == itemsize * sum(q.numel for _, q in model.frozen_tensors())

    def test_device_high_water_independent_of_model_history(self, tmp_path):
        """The frozen bases dequantize on first use; whether that happened
        before training must not move the activation high-water."""
        cfg = tiny_train_cfg(micro_batch=2, accumulation_steps=1, total_steps=2, warmup_steps=1)
        fresh, used = tiny_model(seed=2), tiny_model(seed=2)
        used.forward_ids(np.arange(8))
        hw = [train(m, fixture_windows(), cfg, tmp_path / name).metrics[-1].device_hw_bytes
              for name, m in (("fresh", fresh), ("used", used))]
        assert hw[0] == hw[1]

    def test_identity_ops_charge_nothing(self):
        x = constant(np.zeros(10), FULL)
        ledger = MemoryLedger()
        with ActivationMeter(ledger).scope():
            for out in (dropout(x, 0.0, Rng(0)), dropout(x, 0.5, None), astype(x, FULL)):
                assert out is x
            assert ledger.device_high_water == 0
            dropout(x, 0.5, Rng(0))
            assert ledger.device_high_water == x.value.nbytes


class TestAdam:
    def test_zero_grad_leaves_params(self):
        p = Parameter([1.0, -2.0], FULL, name="w")
        opt = AdamW(quantized=True)
        opt.step([("w", p)], {"w": np.zeros(2)}, lr=0.1)
        assert np.array_equal(p.value, np.array([1.0, -2.0], dtype=np.float32))

    def quadratic_run(self, quantized):
        # f(w) = w^2, grad = 2w
        p = Parameter([1.0], DOUBLE, name="w")
        opt = AdamW(quantized=quantized)
        trace = []
        for _ in range(200):
            g = 2.0 * p.value
            opt.step([("w", p)], {"w": g}, lr=0.1)
            trace.append(float(p.value[0]))
        return trace

    def test_full_precision_quadratic_converges(self):
        trace = self.quadratic_run(quantized=False)
        assert abs(trace[-1]) < 1e-2

    def test_8bit_tracks_full_precision_per_step(self):
        full = self.quadratic_run(quantized=False)
        q8 = self.quadratic_run(quantized=True)
        diffs = [abs(a - b) for a, b in zip(full, q8)]
        assert max(diffs) < 1e-2
        assert abs(q8[-1]) < 2e-2

    def test_moments_finite_after_steps(self):
        rng = np.random.default_rng(0)
        p = Parameter(rng.normal(size=(16,)), FULL, name="w")
        opt = AdamW(quantized=True)
        for i in range(20):
            opt.step([("w", p)], {"w": rng.normal(size=(16,)) * 10.0**i}, lr=1e-3)
        from desklora.quant import dequantize_state8

        m, v = opt8_moments(opt.dumps())["w"]
        assert np.all(np.isfinite(dequantize_state8(m)))
        assert np.all(np.isfinite(dequantize_state8(v)))

    def test_state_serialization_round_trip(self):
        p = Parameter(np.linspace(-1, 1, 32), FULL, name="w")
        opt = AdamW(quantized=True)
        for _ in range(5):
            opt.step([("w", p)], {"w": np.ones(32) * 0.1}, lr=0.01)
        blob = opt.dumps()
        opt2 = AdamW(quantized=True)
        opt2.loads(blob)
        assert opt2.step_count == opt.step_count
        assert opt2.dumps() == blob
        assert opt8_moments(blob)["w"][0].absmax.all()  # not the zeros of a fresh state

    @pytest.mark.parametrize("quantized", [True, False])
    def test_non_finite_gradient_is_training_error(self, quantized):
        p = Parameter(np.zeros(4), FULL, name="w")
        opt = AdamW(quantized=quantized)
        opt.step([("w", p)], {"w": np.ones(4)}, lr=0.1)
        with pytest.raises(TrainingError) as e:
            opt.step([("w", p)], {"w": np.array([0.0, np.inf, 0.0, 0.0])}, lr=0.1)
        assert e.value.step == 2

    def test_optimizer_state_charged_to_host_budget(self):
        ledger = MemoryLedger(MemoryBudget(device_bytes=10**9, host_bytes=50))
        p = Parameter(np.zeros(1024), FULL, name="w")
        opt = AdamW(quantized=True, ledger=ledger)
        with pytest.raises(BudgetError):
            opt.step([("w", p)], {"w": np.ones(1024)}, lr=0.1)


class TestPackWindows:
    def test_separator_and_count(self):
        windows = pack_windows([[7, 8, 9], [10, 11]], seq_len=2)
        # stream: BOS 7 8 9 EOS BOS 10 11 EOS -> windows of 3
        assert windows.shape == (3, 3)
        assert windows.tolist() == [[BOS_ID, 7, 8], [9, EOS_ID, BOS_ID], [10, 11, EOS_ID]]

    def test_each_document_opens_with_bos_and_closes_with_eos(self):
        docs = [[4, 5], [], [6, 7, 8], [9]]
        windows = pack_windows(docs, seq_len=6)
        assert windows.shape == (2, 7)
        assert windows.ravel().tolist() == [
            BOS_ID, 4, 5, EOS_ID, BOS_ID, EOS_ID, BOS_ID, 6, 7, 8, EOS_ID, BOS_ID, 9, EOS_ID]

    def test_too_small_corpus(self):
        with pytest.raises(DataError):
            pack_windows([[1]], seq_len=8)

    def test_matches_the_list_stream_it_replaced(self):
        rng = np.random.default_rng(0)
        docs = [rng.integers(4, 1 << 21, rng.integers(0, 40)).astype("<u4") for _ in range(50)]
        stream = []
        for ids in docs:
            stream.append(BOS_ID)
            stream.extend(int(i) for i in ids)
            stream.append(EOS_ID)
        n = len(stream) // 17
        expected = np.asarray(stream[: n * 17], dtype=np.int64).reshape(n, 17)
        windows = pack_windows(docs, seq_len=16)
        assert windows.dtype == np.int64 and np.array_equal(windows, expected)


class TestTrainLoop:
    def test_metrics_one_row_per_step(self, tmp_path):
        model = tiny_model()
        res = train(model, fixture_windows(), tiny_train_cfg(total_steps=6), tmp_path)
        assert len(res.metrics) == 6
        assert [m.step for m in res.metrics] == list(range(1, 7))
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss,lr,grad_norm,device_hw_bytes,host_hw_bytes,wall_ms"
        assert len(lines) == 7
        assert all(np.isfinite(m.loss) for m in res.metrics)

    def test_checkpoint_cadence_and_rotation(self, tmp_path):
        model = tiny_model()
        cfg = tiny_train_cfg(total_steps=9, checkpoint_every=3, keep_checkpoints=2)
        train(model, fixture_windows(), cfg, tmp_path)
        dirs = sorted(d for d in os.listdir(tmp_path) if d.startswith("step_"))
        assert dirs == ["step_000006", "step_000009"]
        for name in ("model.qnf4", "adapters.lora", "optimizer.st8", "trainer_state"):
            assert (tmp_path / "step_000009" / name).exists()

    def test_frozen_base_bytes_unchanged(self, tmp_path):
        model = tiny_model(seed=3)
        before = model.base_bytes()
        train(model, fixture_windows(), tiny_train_cfg(), tmp_path)
        assert model.base_bytes() == before

    def test_params_actually_move(self, tmp_path):
        model = tiny_model(seed=4)
        emb_before = model.embedding.value.copy()
        train(model, fixture_windows(), tiny_train_cfg(), tmp_path)
        assert not np.array_equal(model.embedding.value, emb_before)

    def test_each_micro_batch_draws_from_its_own_stream(self, tmp_path):
        """Micro-batch `micro` of step `t` gets Rng(seed).split("drop", t, micro),
        one stream for all its rows."""
        model = tiny_model(seed=4, dropout=0.1)
        streams, real_loss = [], model.loss

        def spy(batch, rng, checkpointing):
            streams.append(rng)
            return real_loss(batch, rng=rng, checkpointing=checkpointing)

        model.loss = spy
        cfg = tiny_train_cfg(micro_batch=2, accumulation_steps=3, total_steps=3, seed=5)
        train(model, fixture_windows(), cfg, tmp_path)
        # the model only splits its stream, so a fresh draw from it is its first
        keys = [(t, micro) for t in (1, 2, 3) for micro in range(3)]
        assert len(streams) == len(keys)
        for rng, key in zip(streams, keys):
            assert np.array_equal(rng.uniform((4,)), Rng(5).split("drop", *key).uniform((4,))), key

    def test_determinism_same_seed_same_artifacts(self, tmp_path):
        cfg = tiny_train_cfg(total_steps=4, checkpoint_every=4)
        a = tmp_path / "a"
        b = tmp_path / "b"
        train(tiny_model(seed=5), fixture_windows(), cfg, a)
        train(tiny_model(seed=5), fixture_windows(), cfg, b)
        assert (a / "step_000004" / "model.qnf4").read_bytes() == (b / "step_000004" / "model.qnf4").read_bytes()
        assert (a / "step_000004" / "adapters.lora").read_bytes() == (b / "step_000004" / "adapters.lora").read_bytes()
        assert (a / "step_000004" / "optimizer.st8").read_bytes() == (b / "step_000004" / "optimizer.st8").read_bytes()

    @staticmethod
    def run_and_resume(tmp_path, dropout=0.0, old_state=False, **kw):
        """Train 4 steps, then resume a second run from the full run's step 2;
        with `old_state`, its trainer_state also holds the config digest that
        earlier versions wrote."""
        cfg = tiny_train_cfg(total_steps=4, checkpoint_every=2, keep_checkpoints=9, **kw)
        full_dir = tmp_path / "full"
        train(tiny_model(seed=6, dropout=dropout), fixture_windows(), cfg, full_dir)
        if old_state:
            path = full_dir / "step_000002" / "trainer_state"
            state = json.loads(path.read_text())
            path.write_text(json.dumps({**state, "config_digest": sha256_json(cfg.to_dict())}))

        resumed_dir = tmp_path / "resumed"
        model2, state = load_checkpoint(full_dir / "step_000002")
        assert state["step"] == 2
        train(model2, fixture_windows(), cfg, resumed_dir, resume_from=full_dir / "step_000002")
        return full_dir, resumed_dir

    @pytest.mark.parametrize("dropout, micro_batch, old_state",
                             [(0.0, 1, False), (0.05, 2, False), (0.0, 1, True)])
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, dropout, micro_batch, old_state):
        full_dir, resumed_dir = self.run_and_resume(tmp_path, dropout, old_state,
                                                    micro_batch=micro_batch)
        for name in ("model.qnf4", "adapters.lora", "optimizer.st8"):
            assert (resumed_dir / "step_000004" / name).read_bytes() == (
                full_dir / "step_000004" / name
            ).read_bytes()

        def rows_without_wall_ms(run_dir):
            lines = (run_dir / "metrics.csv").read_text().splitlines()[1:]
            return {int(line.split(",")[0]): line.rsplit(",", 1)[0] for line in lines}

        full_rows = rows_without_wall_ms(full_dir)
        resumed_rows = rows_without_wall_ms(resumed_dir)
        assert sorted(resumed_rows) == [3, 4]
        for step in (3, 4):
            assert resumed_rows[step] == full_rows[step]

    @staticmethod
    def crash_at_5_and_resume(tmp_path):
        """Train toward 8 steps, raise from `log` at step 5, resume in the same
        directory from step 4."""
        cfg = tiny_train_cfg(total_steps=8, checkpoint_every=2, keep_checkpoints=2)

        def log(line):
            if line.startswith("step 5/"):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            train(tiny_model(seed=6), fixture_windows(), cfg, tmp_path, log=log)
        assert sorted(d for d in os.listdir(tmp_path) if d.startswith("step_")) == [
            "step_000002", "step_000004"]
        model, _ = load_checkpoint(tmp_path / "step_000004")
        train(model, fixture_windows(), cfg, tmp_path, resume_from=tmp_path / "step_000004")

    def test_resume_keeps_only_keep_checkpoints(self, tmp_path):
        self.crash_at_5_and_resume(tmp_path)
        dirs = sorted(d for d in os.listdir(tmp_path) if d.startswith("step_"))
        assert dirs == ["step_000006", "step_000008"]

    def test_resume_writes_each_step_once(self, tmp_path):
        self.crash_at_5_and_resume(tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,loss,lr,grad_norm,device_hw_bytes,host_hw_bytes,wall_ms"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 9))

    def test_trained_double_model_reloads_exactly(self, tmp_path):
        model = tiny_model(seed=7, dtype=DOUBLE, dropout=0.05)
        res = train(model, fixture_windows(), tiny_train_cfg(total_steps=6, checkpoint_every=6), tmp_path)
        reloaded, _ = load_checkpoint(res.final_checkpoint)
        for (name, p), (_, q) in zip(model.trainable_parameters(), reloaded.trainable_parameters()):
            assert q.value.dtype == np.float64 and np.array_equal(q.value, p.value), name
        ids = fixture_windows()[0]
        assert np.array_equal(reloaded.forward_ids(ids), model.forward_ids(ids))

    def test_train_releases_the_dequantized_bases(self, tmp_path):
        """No frozen layer holds its float copy once `train` returns; the next
        forward rebuilds it, and the logits equal a reloaded checkpoint's."""
        model = tiny_model(seed=6, dropout=0.05)
        res = train(model, fixture_windows(), tiny_train_cfg(checkpointing=True), tmp_path)
        assert all(layer._weight is None for blk in model.blocks for layer in blk.frozen())
        reloaded, _ = load_checkpoint(res.final_checkpoint)
        ids = fixture_windows()[0]
        assert np.array_equal(model.forward_ids(ids), reloaded.forward_ids(ids))

    def test_full_precision_adamw_checkpoints_and_resumes(self, tmp_path):
        full_dir, resumed_dir = self.run_and_resume(tmp_path, optimizer="adamw")
        assert (resumed_dir / "step_000004" / "optimizer.st8").read_bytes() == (
            full_dir / "step_000004" / "optimizer.st8"
        ).read_bytes()

    def test_failed_save_leaves_no_checkpoint_dir(self, tmp_path, monkeypatch):
        model = tiny_model()
        opt = AdamW()

        def fail():
            raise OSError("disk full")

        monkeypatch.setattr(opt, "dumps", fail)
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "step_000003", model, opt, 3, tiny_train_cfg())
        assert sorted(os.listdir(tmp_path)) == ["step_000003.tmp"]

    def test_save_replaces_an_existing_checkpoint(self, tmp_path):
        model, cfg = tiny_model(), tiny_train_cfg()
        target = tmp_path / "step_000003"
        (tmp_path / "step_000003.tmp").mkdir()  # stale, from an earlier failed save
        target.mkdir()
        (target / "leftover").write_text("x")
        save_checkpoint(target, model, AdamW(), 3, cfg)
        assert sorted(os.listdir(tmp_path)) == ["step_000003"]
        assert sorted(os.listdir(target)) == ["adapters.lora", "model.qnf4", "optimizer.st8", "trainer_state"]
        reloaded, state = load_checkpoint(target)
        assert state["step"] == 3
        assert reloaded.base_bytes() == model.base_bytes()

    @pytest.mark.parametrize("case, match", [
        ("alpha 16", "alpha 16.0; the model expects rank 4, alpha 32.0"),
        ("rank 2", "rank 2, alpha 32.0; the model expects rank 4"),
        ("a layer the model lacks", r"lacks: \['layer2\.k', 'layer2\.o', 'layer2\.q', 'layer2\.v'\]"),
        ("double adapters", "'layer0.q' is float64; the model is full"),
    ])
    def test_adapters_that_do_not_fit_the_model_are_format_error(self, tmp_path, case, match):
        model = tiny_model()
        ckpt = tmp_path / "step_000003"
        save_checkpoint(ckpt, model, AdamW(), 3, tiny_train_cfg())
        layers, lcfg = model.adapted_layers(), model.cfg.lora
        if case == "alpha 16":  # scaling 4 where the model runs at 8
            lcfg = dataclasses.replace(lcfg, alpha=16.0)
        elif case == "rank 2":
            other = build(dataclasses.replace(model.cfg, lora=LoraConfig(r=2)), Rng(0))
            layers, lcfg = other.adapted_layers(), other.cfg.lora
        elif case == "a layer the model lacks":
            layers = tiny_model(layers=3).adapted_layers()
        else:
            layers = tiny_model(dtype=DOUBLE).adapted_layers()
        (ckpt / "adapters.lora").write_bytes(dumps_adapters(layers, lcfg))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("content", ['{"step": 2, "se', '{"step": 2}', "[]", "\udcff"])
    def test_damaged_trainer_state_is_format_error(self, tmp_path, content):
        cfg = tiny_train_cfg(warmup_steps=1, total_steps=2, checkpoint_every=2)
        train(tiny_model(seed=6), fixture_windows(), cfg, tmp_path / "run")
        ckpt = tmp_path / "run" / "step_000002"
        (ckpt / "trainer_state").write_bytes(content.encode("utf-8", "surrogateescape"))
        with pytest.raises(FormatError):
            load_checkpoint(ckpt)
        with pytest.raises(FormatError):
            train(tiny_model(seed=6), fixture_windows(), cfg, tmp_path / "x", resume_from=ckpt)

    @pytest.mark.parametrize("total_steps, dropped, match", [
        (5, None, r"train\.train\.total_steps is 5 but checkpoint .* has 4"),
        (4, "lr_max", r"train\.train\.lr_max is .* but checkpoint .* has no 'lr_max'"),
    ])
    def test_resume_config_mismatch_rejected(self, tmp_path, total_steps, dropped, match):
        """The first key path that differs is named, a key the checkpoint's
        config lacks included."""
        cfg = tiny_train_cfg(total_steps=4, checkpoint_every=2, keep_checkpoints=9)
        train(tiny_model(seed=6), fixture_windows(), cfg, tmp_path / "run")
        ckpt = tmp_path / "run" / "step_000002"
        if dropped:
            state = json.loads((ckpt / "trainer_state").read_text())
            del state["config"][dropped]
            (ckpt / "trainer_state").write_text(json.dumps(state))
        model2, _ = load_checkpoint(ckpt)
        other = dataclasses.replace(cfg, total_steps=total_steps)
        with pytest.raises(ConfigError, match=match):
            train(model2, fixture_windows(), other, tmp_path / "x", resume_from=ckpt)

    def test_accumulation_equivalence_plain_sgd(self, tmp_path):
        """(B=1, N=4) equals (B=4, N=1) within 1e-10 after 20 macro-steps."""
        windows = fixture_windows(n=80, seq_len=8)

        def run(micro_batch, accum, out):
            model = tiny_model(seed=7, dtype=DOUBLE, layers=1, d=16)
            cfg = TrainConfig(
                micro_batch=micro_batch, accumulation_steps=accum, lr_max=1e-2,
                warmup_steps=1, total_steps=20, max_grad_norm=1e9, seq_len=8, seed=0,
                optimizer="sgd", checkpoint_every=20,
            )
            train(model, windows, cfg, out)
            return model

        m_accum = run(1, 4, tmp_path / "accum")
        m_batch = run(4, 1, tmp_path / "batch")
        for (name, pa), (_, pb) in zip(m_accum.trainable_parameters(), m_batch.trainable_parameters()):
            assert np.max(np.abs(pa.value - pb.value)) < 1e-10, name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_with_step(self, tmp_path):
        model = tiny_model(seed=8)
        cfg = tiny_train_cfg(total_steps=40, lr_max=1e8, warmup_steps=1, max_grad_norm=1e9,
                             optimizer="sgd")
        with pytest.raises(TrainingError) as e:
            train(model, fixture_windows(), cfg, tmp_path)
        assert e.value.step is not None
        assert all(layer._weight is None for blk in model.blocks for layer in blk.frozen())

    def test_budget_breach_aborts(self, tmp_path):
        model = tiny_model(seed=9)
        cfg = tiny_train_cfg(budget=MemoryBudget(device_bytes=100, host_bytes=10**9))
        with pytest.raises(BudgetError):
            train(model, fixture_windows(), cfg, tmp_path)

    def test_activation_budget_breach_aborts(self, tmp_path):
        model = tiny_model(seed=9)
        ledger = MemoryLedger()
        register_static_memory(model, ledger)
        budget = MemoryBudget(device_bytes=ledger.device_total() + 5000, host_bytes=10**9)
        with pytest.raises(BudgetError):
            train(model, fixture_windows(), tiny_train_cfg(budget=budget), tmp_path)


class TestCheckpointedGradients:
    def grads_for(self, checkpointing, layers=2, seed=11, meter=None):
        model = tiny_model(seed=seed, layers=layers, dropout=0.1)
        window = np.array(Rng(0).integers(4, 64, (9,)))
        model.zero_grads()
        rng = Rng(1).split("drop")
        if meter is not None:
            with meter.scope():
                loss = model.loss(window, rng=rng, checkpointing=checkpointing)
                backward(loss)
        else:
            loss = model.loss(window, rng=rng, checkpointing=checkpointing)
            backward(loss)
        return {n: p.grad.copy() for n, p in model.trainable_parameters() if p.grad is not None}

    def test_gradients_bit_identical(self):
        plain = self.grads_for(False)
        ckpt = self.grads_for(True)
        assert set(plain) == set(ckpt)
        for name in plain:
            assert np.array_equal(plain[name], ckpt[name]), name

    def test_blocks_over_an_input_without_gradient_train_their_adapters(self):
        """With the embedding frozen, no block's input needs a gradient; the
        checkpointed blocks still give their adapters the plain path's gradients."""
        window = np.array(Rng(0).integers(4, 64, (9,)))
        grads = {}
        for mode in (False, True):
            model = tiny_model(seed=11, dropout=0.1)
            for layer in model.adapted_layers():  # a nonzero B, so A gets a gradient too
                layer.adapter.b.assign(Rng(3).split(layer.name).normal(layer.adapter.b.shape, std=0.1))
            model.embedding.requires_grad = False
            backward(model.loss(window, rng=Rng(1).split("drop"), checkpointing=mode))
            grads[mode] = {n: p.grad for n, p in model.trainable_parameters() if p.grad is not None}
        names = {n for n, _ in tiny_model().trainable_parameters()} - {"embedding"}
        assert set(grads[True]) == set(grads[False]) == names
        for name in names:
            assert np.array_equal(grads[True][name], grads[False][name]), name
            assert np.any(grads[True][name] != 0), name

    def test_activation_high_water_strictly_lower(self):
        ledgers = {}
        for mode in (False, True):
            ledger = MemoryLedger()
            meter = ActivationMeter(ledger)
            self.grads_for(mode, layers=4, seed=12, meter=meter)
            ledgers[mode] = ledger
        assert ledgers[True].device_high_water < ledgers[False].device_high_water

    def test_single_layer_no_claim(self):
        # boundary: 1 layer may not save anything; just check it runs and matches
        plain = self.grads_for(False, layers=1, seed=13)
        ckpt = self.grads_for(True, layers=1, seed=13)
        for name in plain:
            assert np.array_equal(plain[name], ckpt[name])
