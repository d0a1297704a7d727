"""Tests for the benchmark itself: span arithmetic, tracer restoration,
output checks against corrupted outputs, and a tiny run of every workload."""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from deskbench import inputs, runner, spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _trace(rows):
    """Tracer holding hand-built spans: (name, start, end, parent)."""
    t = spans.Tracer()
    for name, start, end, parent in rows:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
        t.sizes.append(0)
    return t


def test_self_time_subtracts_children_only():
    own = spans.self_times([0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0], [-1, 0, 1, 0])
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_derive_phases_recompute_and_layer_shares():
    t = _trace([
        ("trainer.train", 0.0, 10.0, -1),
        ("model.loss", 0.0, 4.0, 0),
        ("numcore.matmul", 1.0, 2.0, 1),
        ("numcore.backward", 4.0, 8.0, 0),
        ("numcore.matmul", 5.0, 6.0, 3),  # checkpoint recompute inside backward
        ("trainer.optimizer_step", 8.0, 9.0, 0),
        ("quant.quantize_state8", 8.25, 8.5, 5),
    ])
    m = spans.derive(t, n_ops=2, op_s_total=10.0, step_s_total=10.0)
    assert m["numcore.matmul.s"] == pytest.approx(1.0)  # 2 s over 2 operations
    assert m["numcore.matmul.calls"] == 1.0
    assert m["numcore.backward.s"] == pytest.approx(1.5)
    assert m["numcore.recompute_s"] == pytest.approx(0.5)
    assert m["numcore.recompute_ratio"] == 1.0
    assert m["numcore.ops_per_sequence"] == 1.0
    assert m["trainer.phase.forward_share"] == pytest.approx(0.4)
    assert m["trainer.phase.backward_share"] == pytest.approx(0.4)
    assert m["trainer.phase.optimizer_share"] == pytest.approx(0.1)
    assert m["quant.quantize_state8.s"] == pytest.approx(0.125)
    # trainer self time: 1 s in train() outside its children, 0.75 s in the optimizer
    assert m["trainer.self_share"] == pytest.approx(0.175)
    assert m["arabicprep.self_share"] == 0.0


def _module_state():
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "desklora" or name.startswith("desklora."):
            state[name] = dict(vars(mod))
    for _, module, cls, attr in spans.METHODS:
        owner = getattr(sys.modules[module], cls)
        state[(cls, attr)] = owner.__dict__[attr]
    return state


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_every_workload(name, tmp_path):
    import desklora.cli  # noqa: F401

    before = _module_state()
    traced = runner.run_workload(name, 3, 0, True, str(tmp_path), sizes=workloads.TINY)
    after = _module_state()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        if isinstance(attrs, dict):
            assert all(after[key].get(k) is v for k, v in attrs.items()), key
        else:
            assert after[key] is attrs, key
    assert traced["result"]["correct"], traced["detail"]["errors"]
    assert traced["result"]["attempted"] == 2
    assert traced["detail"]["spans"] > 0
    assert list(traced["result"]["metrics"]) == [n for n, _ in spans.PER_LAYER]

    plain = runner.run_workload(name, 3, 0, False, str(tmp_path), sizes=workloads.TINY)
    assert plain["result"]["correct"], plain["detail"]["errors"]
    metrics = plain["result"]["metrics"]
    assert list(metrics) == list(runner.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert not os.path.exists(tmp_path / "work" / f"{name}-3-{os.getpid()}")


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == runner.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)


def test_inputs_repeat_for_a_seed():
    assert inputs.corpus(30, 5) == inputs.corpus(30, 5)
    assert inputs.corpus(30, 5) != inputs.corpus(30, 6)
    a = inputs.token_windows(4, 9, 64, 5)
    assert np.array_equal(a, inputs.token_windows(4, 9, 64, 5))
    assert a.min() >= 4 and a.max() < 64


# ---------------------------------------------------------------------------
# each output check rejects a corrupted output
# ---------------------------------------------------------------------------


def _ready(cls, tmp_path):
    w = cls(workloads.TINY, 4, str(tmp_path))
    w.setup()
    return w, w.op(0)


def test_prep_check_rejects_a_changed_shard_token(tmp_path):
    w, res = _ready(workloads.Prep, tmp_path)
    assert w.check([res]) == [[]]
    out = res.data["out"]
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    shard = os.path.join(out, manifest["shards"][0]["file"])
    with open(shard, "rb") as f:
        blob = bytearray(f.read())
    blob[-4:] = (int.from_bytes(blob[-4:], "little") ^ 1).to_bytes(4, "little")
    with open(shard, "wb") as f:
        f.write(blob)
    manifest["shards"][0]["sha256"] = hashlib.sha256(bytes(blob)).hexdigest()
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f)
    errors = workloads.check_prep_output(out, w.texts)
    assert errors and "decode" in errors[0]


def test_training_check_rejects_each_corruption(tmp_path):
    w, res = _ready(workloads.Finetune, tmp_path)
    base = w._build().base_bytes()
    probe = w.windows[0][:-1]
    rows, model, ckpt = res.data["rows"], res.data["model"], res.data["checkpoint"]
    assert workloads.check_training_output(rows, base, model, ckpt, probe) == []

    rising = [dict(r, loss=float(i)) for i, r in enumerate(rows)]
    assert "not below" in workloads.check_training_output(rising, base, model, ckpt, probe)[0]

    path = os.path.join(ckpt, "adapters.lora")
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    blob[-4:] = np.float32(0.5).tobytes()
    with open(path, "wb") as f:
        f.write(blob)
    errors = workloads.check_training_output(rows, base, model, ckpt, probe)
    assert errors == ["final checkpoint reloads with different logits"]

    model.blocks[0].w1.q.codes[0] ^= 0xFF
    errors = workloads.check_training_output(rows, base, model, ckpt, probe)
    assert "quantized base" in errors[0]


def test_eval_check_rejects_a_changed_report(tmp_path):
    w, res = _ready(workloads.Evaluate, tmp_path)
    assert w.check([res]) == [[]]
    report = json.loads(json.dumps(res.data["report"]))
    report["tables"]["perplexity"]["MSA"] *= 1.0 + 1e-6
    assert "perplexity/MSA" in workloads.check_eval_report(report, w.expected)[0]
    report = json.loads(json.dumps(res.data["report"]))
    report["curves"]["robustness"][-1][1] += 0.01
    assert "robustness" in workloads.check_eval_report(report, w.expected)[0]


def test_reference_greedy_slides_the_window():
    class Model:
        class cfg:
            max_seq_len = 3

        def __init__(self):
            self.seen = []

        def forward_ids(self, ids):
            self.seen.append(ids.tolist())
            logits = np.zeros((len(ids), 10))
            logits[-1, (int(ids[-1]) + 1) % 10] = 1.0
            return logits

    m = Model()
    assert workloads.reference_greedy(m, [1, 2], 3) == [3, 4, 5]
    assert m.seen == [[1, 2], [1, 2, 3], [2, 3, 4]]
    assert workloads.window_slide_share([(2, 3)], 3) == pytest.approx(1 / 3)


def test_determinism_record_rejects_a_changed_fingerprint(tmp_path):
    record = str(tmp_path / "r.json")
    assert runner.check_determinism(record, {"final_loss": 1.5}) == []
    assert runner.check_determinism(record, {"final_loss": 1.5}) == []
    assert "final_loss" in runner.check_determinism(record, {"final_loss": 1.25})[0]
