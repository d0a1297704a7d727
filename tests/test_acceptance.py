"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s

The end-to-end criteria share one 500-step training run on a synthetic
~135 KB Arabic corpus (session fixtures below), so the whole suite stays
inside the stated runtime budgets.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from desklora import cli, lora, quant
from desklora.arabicprep import (
    BOUNDARY,
    NormalizationPolicy,
    ShardReader,
    bpe_train,
    clean,
    encode_text,
    handle_diacritics,
    morph_presegment,
    normalize,
    prepare_documents,
    preprocess_text,
    segment_sentences,
)
from desklora.errors import BudgetError
from desklora.evalharness import (
    EvalReport,
    PerturbationConfig,
    bleu,
    dialect_breakdown,
    emit_report,
    exact_match,
    perplexity,
    perturb,
    qa_f1,
    robustness_curve,
    validate_report,
)
from desklora.lora import FrozenLinear, LoraAdapter, LoraConfig
from desklora.model import ModelConfig, build
from desklora.numcore import (
    DOUBLE,
    FULL,
    GradNode,
    Rng,
    add,
    backward,
    causal_attention,
    constant,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    scale,
    softmax_cross_entropy,
    transpose,
)
from desklora.trainer import (
    ActivationMeter,
    AdamW,
    MemoryBudget,
    MemoryLedger,
    TrainConfig,
    clip_gradients,
    effective_batch,
    global_grad_norm,
    lr_at,
    pack_windows,
    train,
)
from desklora.util import sha256_file
from tests.conftest import (
    PositionLogitsModel, merge_agreement, synth_raw_docs, write_encoded_shards, write_jsonl,
)
from tests.numcore_oracles import finite_diff_check, mul, sum_all

POLICY = NormalizationPolicy()


def announce(num: int, text: str):
    print(f"\n[ACCEPTANCE] criterion {num:02d} PASS: {text}")


# ---------------------------------------------------------------------------
# shared end-to-end fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def prep50kb(corpus_50kb_docs):
    t0 = time.monotonic()
    docs = prepare_documents(corpus_50kb_docs, POLICY)
    assert sum(len(d.text.encode("utf-8")) for d in docs) >= 50_000
    vocab = bpe_train((d.text for d in docs), vocab_size=512)
    token_lists = [vocab.encode(d.text) for d in docs]
    windows = pack_windows(token_lists, seq_len=48)
    return {
        "docs": docs,
        "vocab": vocab,
        "windows": windows,
        "prep_seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def training_run(prep50kb, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_train")
    vocab = prep50kb["vocab"]
    cfg = ModelConfig(
        vocab_size=vocab.n_tokens, d_model=64, n_heads=4, n_layers=2, d_ffn=256,
        max_seq_len=49, lora=LoraConfig(r=8, dropout=0.05),
    )
    model = build(cfg, Rng(1))
    base_model = build(cfg, Rng(1))  # untouched twin for base-vs-finetuned tables
    base_bytes_before = model.base_bytes()
    tc = TrainConfig(
        micro_batch=8, accumulation_steps=1, lr_max=3e-3, warmup_steps=40,
        total_steps=500, max_grad_norm=1.0, seq_len=48, seed=5, checkpoint_every=500,
    )
    t0 = time.monotonic()
    result = train(model, prep50kb["windows"], tc, out, vocab_hash=vocab.vocab_hash())
    return {
        "model": model,
        "base_model": base_model,
        "result": result,
        "base_bytes_before": base_bytes_before,
        "train_seconds": time.monotonic() - t0,
        "out": out,
    }


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------


def _op_battery(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(4, 6))
    w = constant(rng.normal(size=(4, 6)), DOUBLE)

    def probe(out):
        return sum_all(mul(out, w))

    c_add = constant(rng.normal(size=(4, 6)), DOUBLE)
    c_mul = constant(rng.normal(size=(4, 6)), DOUBLE)
    c_gain = constant(rng.normal(size=6), DOUBLE)
    gain0 = rng.normal(size=6)
    c_right = constant(rng.normal(size=(6, 5)), DOUBLE)
    c_p45 = constant(rng.normal(size=(4, 5)), DOUBLE)
    c_p64 = constant(rng.normal(size=(6, 4)), DOUBLE)
    targets = rng.integers(0, 6, size=4)
    drop_rng = Rng(seed)

    checks = [
        lambda x: probe(add(x, c_add)),
        lambda x: probe(mul(x, c_mul)),
        lambda x: probe(scale(x, -2.5)),
        lambda x: probe(gelu(x)),
        lambda x: probe(layer_norm(x, c_gain)),
        lambda x: probe(dropout(x, 0.4, drop_rng.split("fd"))),
        lambda x: sum_all(mul(matmul(x, c_right), c_p45)),
        lambda x: sum_all(mul(transpose(x), c_p64)),
        lambda x: softmax_cross_entropy(matmul(x, c_right), targets[:4] % 5),
    ]
    worst = max(finite_diff_check(f, x0) for f in checks)
    c_x = constant(x0, DOUBLE)
    worst = max(worst, finite_diff_check(lambda gain: probe(layer_norm(c_x, gain)), gain0))

    # fused attention, each operand
    t_len, heads, d = 5, 2, 8
    pos = np.arange(t_len)[:, None]
    idx = np.arange(d // heads // 2)[None, :]
    theta = pos / (10000.0 ** (2 * idx / (d // heads)))
    rope = (np.cos(theta), np.sin(theta))
    qv, kv, vv = (rng.normal(size=(t_len, d)) for _ in range(3))
    wa = constant(rng.normal(size=(t_len, d)), DOUBLE)
    kn, vn, qn = constant(kv, DOUBLE), constant(vv, DOUBLE), constant(qv, DOUBLE)
    attn_checks = [
        lambda x: sum_all(mul(causal_attention(x, kn, vn, heads, rope), wa)),
        lambda x: sum_all(mul(causal_attention(qn, x, vn, heads, rope), wa)),
        lambda x: sum_all(mul(causal_attention(qn, kn, x, heads, rope), wa)),
    ]
    worst = max(worst, max(finite_diff_check(f, rng.normal(size=(t_len, d))) for f in attn_checks))

    # embedding gather
    ids = rng.integers(0, 3, size=5)
    wg = constant(rng.normal(size=(5, 4)), DOUBLE)
    worst = max(worst, finite_diff_check(
        lambda t: sum_all(mul(gather_rows(t, ids), wg)), rng.normal(size=(3, 4))
    ))

    # a leading batch axis: two [T, d] sequences
    xb = rng.normal(size=(2, t_len, d))
    xb_node = constant(xb, DOUBLE)
    w_right = constant(rng.normal(size=(d, 5)), DOUBLE)
    c_pb = constant(rng.normal(size=(2, t_len, 5)), DOUBLE)
    targets_b = rng.integers(0, 5, size=(2, t_len))
    qb, kb, vb, wb = (constant(rng.normal(size=(2, t_len, d)), DOUBLE) for _ in range(4))
    gain_b = rng.normal(size=d)
    c_gain_b = constant(gain_b, DOUBLE)
    batch_checks = [
        (lambda x: sum_all(mul(matmul(x, w_right), c_pb)), xb),
        (lambda w: sum_all(mul(matmul(xb_node, w), c_pb)), rng.normal(size=(d, 5))),
        (lambda x: softmax_cross_entropy(matmul(x, w_right), targets_b), xb),
        (lambda x: sum_all(mul(causal_attention(x, kb, vb, heads, rope), wb)), xb),
        (lambda x: sum_all(mul(causal_attention(qb, x, vb, heads, rope), wb)), xb),
        (lambda x: sum_all(mul(causal_attention(qb, kb, x, heads, rope), wb)), xb),
        (lambda x: sum_all(mul(layer_norm(x, c_gain_b), wb)), xb),
        (lambda gain: sum_all(mul(layer_norm(xb_node, gain), wb)), gain_b),
    ]
    worst = max(worst, max(finite_diff_check(f, x) for f, x in batch_checks))

    # QLoRA's frozen linear op: x, A and B through a dropped-out adapter branch on
    # [2, T, d] rows with one stream; x without dropout on [T, d]; x without an adapter
    layer = FrozenLinear("fd", quant.quantize(rng.normal(size=(5, d)).astype(np.float32)), DOUBLE)
    a_val, b_val = rng.normal(size=(3, d)), rng.normal(size=(5, 3))
    a_node, b_node = constant(a_val, DOUBLE), constant(b_val, DOUBLE)
    c_lin = constant(rng.normal(size=(t_len, 5)), DOUBLE)
    c_lin_b = constant(rng.normal(size=(2, t_len, 5)), DOUBLE)

    def qlora(x, a=a_node, b=b_node, rate=0.4, adapter=True):
        layer.adapter = LoraAdapter(a, b, 2.0, rate) if adapter else None
        rows = Rng(seed).split("row") if x.value.ndim == 3 else None
        return lora.forward(layer, x, rows)

    qlora_checks = [
        (lambda x: sum_all(mul(qlora(x), c_lin_b)), xb),
        (lambda a: sum_all(mul(qlora(xb_node, a=a), c_lin_b)), a_val),
        (lambda b: sum_all(mul(qlora(xb_node, b=b), c_lin_b)), b_val),
        (lambda x: sum_all(mul(qlora(x), c_lin)), rng.normal(size=(t_len, d))),
        (lambda x: sum_all(mul(qlora(x, adapter=False), c_lin)), rng.normal(size=(t_len, d))),
    ]
    worst = max(worst, max(finite_diff_check(f, x) for f, x in qlora_checks))
    return worst


def _attention_score_bound(model, window) -> float:
    """Upper bound on block 0's pre-softmax scores: max over heads of
    max_t |q_t| * max_s |k_s| / sqrt(d_h), from the projections before RoPE.
    RoPE only rotates q and k, so the bound holds for every rotated score."""
    blk, cfg = model.blocks[0], model.cfg
    with no_grad():
        h = layer_norm(gather_rows(model.embedding, window), blk.ln1_g)
        q, k = (lora.forward(layer, h).value for layer in (blk.q, blk.k))
    shape = (len(window), cfg.n_heads, cfg.head_dim)
    q_norm = np.linalg.norm(q.reshape(shape), axis=-1).max(axis=0)
    k_norm = np.linalg.norm(k.reshape(shape), axis=-1).max(axis=0)
    return float(np.max(q_norm * k_norm) / math.sqrt(cfg.head_dim))


def _model_fd_check(seed: int) -> float:
    """Full 1-layer model graph: central differences on one rotating leaf.

    The scalar under test is a random linear functional of the logits; the
    softmax-CE head itself is finite-difference checked in the op battery,
    where its gradients are well conditioned.

    Premise: attention is not saturated. A saturated softmax makes the Q
    gradient exponentially small (the relative error then measures round-off)
    and gives the embedding huge higher derivatives (the central difference
    then carries truncation error). B is drawn so that the scaled branch
    scaling * B ~ N(0, 0.3^2) stays O(1) at the default alpha/r = 16, which
    the graph still applies. Both the score bound and the leaf's gradient
    size are asserted before any differencing. h = 3e-6 sits where the
    embedding's truncation error (which goes as h^2) has fallen well below
    the bound, and round-off on the `q.lora_a` leaf has not yet risen.
    """
    cfg = ModelConfig(
        vocab_size=9, d_model=8, n_heads=2, n_layers=1, d_ffn=16, max_seq_len=8,
        dtype=DOUBLE, lora=LoraConfig(r=2, dropout=0.0),
    )
    model = build(cfg, Rng(seed))
    for layer in model.adapted_layers():
        std = 0.3 / layer.adapter.scaling
        layer.adapter.b.assign(
            Rng(seed).split(layer.name, "b").normal(layer.adapter.b.value.shape, std=std)
        )
    window = np.array(Rng(seed).split("win").integers(1, 9, (7,)))
    probe = constant(Rng(seed).split("probe").normal((7, 9)), DOUBLE)
    assert _attention_score_bound(model, window) < 20.0

    def objective():
        return sum_all(mul(model.forward(window), probe))

    leaves = [
        model.blocks[0].q.adapter.a,
        model.blocks[0].v.adapter.b,
        model.blocks[0].ln1_g,
        model.embedding,
    ]
    param = leaves[seed % len(leaves)]

    model.zero_grads()
    backward(objective())
    analytic = param.grad.copy()
    assert np.max(np.abs(analytic)) >= 1e-3
    base_vals = param.value.copy()
    h = 3e-6
    worst = 0.0
    for i in np.ndindex(*analytic.shape):
        for sign in (1.0, -1.0):
            vals = base_vals.copy()
            vals[i] += sign * h
            param.assign(vals)
            with no_grad():
                v = objective().value.item()
            if sign > 0:
                fp = v
            else:
                fm = v
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(analytic[i] - fd) / (abs(analytic[i]) + 1e-8))
    param.assign(base_vals)
    return worst


def test_c01_gradient_fidelity():
    t0 = time.monotonic()
    worst_ops = max(_op_battery(seed) for seed in range(100))
    worst_model = max(_model_fd_check(seed) for seed in range(100))
    elapsed = time.monotonic() - t0
    assert worst_ops < 1e-4
    assert worst_model < 1e-4
    assert elapsed < 60.0
    announce(1, f"op battery max rel err {worst_ops:.2e}, 1-layer model {worst_model:.2e}, "
                f"100 seeds each in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. NF4 round trip
# ---------------------------------------------------------------------------


def test_c02_nf4_round_trip():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10**6)
    q = quant.quantize(x, 64)
    recon = quant.dequantize(q, np.float64)
    half_gap = quant.max_half_gap(quant.NF4_VALUES)
    absmax = np.repeat(q.absmax.astype(np.float64), 64)[: x.size]
    err = np.abs(recon - x)
    assert np.all(err <= absmax * half_gap + 1e-9)

    all_recon = quant.NF4_VALUES[None, :] * absmax[:, None]
    best = np.abs(all_recon - x[:, None]).min(axis=1)
    assert np.all(err <= best + 1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    announce(2, f"1e6 normals: bound holds (half gap {half_gap:.4f}), "
                f"nearest-code optimal, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. memory accounting
# ---------------------------------------------------------------------------


def test_c03_memory_accounting():
    numel = 1 << 20  # ~1e6 params, block- and group-aligned
    x = np.random.default_rng(1).standard_normal(numel).astype(np.float32)

    q_plain = quant.quantize(x, 64)
    assert quant.bits_per_param(q_plain) == 4.5

    q_dq = quant.quantize(x, 64, double_quant=True)
    expected_bits = 4 + 8 / 64 + 64 / (64 * 256)
    assert quant.bits_per_param(q_dq) == expected_bits
    assert abs(expected_bits - 4.1289) < 1e-4

    ledger = MemoryLedger(MemoryBudget())
    for q in (q_plain, q_dq):
        payload = quant.quantized_nbytes(q)
        ledger.allocate("quantized_weights", payload)
        assert payload == quant.bits_per_param(q) * numel / 8
        header_overhead = len(quant.dumps_qnf4(q)) - payload
        assert 0 < header_overhead < 64
    announce(3, f"bits/param 4.5 and {expected_bits:.6f}; ledger bytes exact, "
                f"serialized header < 64 bytes")


# ---------------------------------------------------------------------------
# 4. LoRA identity at init + merge equivalence
# ---------------------------------------------------------------------------


def test_c04_lora_identity_and_merge():
    rng = Rng(4)
    base = quant.quantize(rng.split("w").normal((24, 16), std=0.02).astype(np.float32))
    layer = lora.attach(base, LoraConfig(r=8, alpha=32.0, dropout=0.05), rng.split("ad"), name="l")
    probe_rng = Rng(5)
    for _ in range(20):
        x = probe_rng.normal((3, 16))
        adapted = lora.forward(layer, constant(x, FULL)).value
        plain = x.astype(np.float32) @ quant.dequantize(base).T
        assert np.array_equal(adapted, plain)  # bit-identical at init

    layer.adapter.b.assign(Rng(6).normal((24, 8), std=0.1))
    merged = lora.merge(layer)
    worst = 0.0
    for _ in range(100):
        x = probe_rng.normal((1, 16))
        adapted = lora.forward(layer, constant(x, FULL)).value
        direct = x.astype(np.float32) @ merged.T
        worst = max(worst, merge_agreement(layer, x, adapted), merge_agreement(layer, x, direct))
    assert worst < 1.0
    announce(4, f"identity-at-init bit-exact on 20 probes; adapted and merged outputs within "
                f"{worst:.2f} of the float32 rounding bound of x(W + sBA)^T over 100 probes")


# ---------------------------------------------------------------------------
# 5. gradient-accumulation equivalence
# ---------------------------------------------------------------------------


def test_c05_accumulation_equivalence(tmp_path):
    windows = np.array(Rng(2).integers(4, 64, (96, 9)))

    def run(micro_batch, accum, out):
        cfg = ModelConfig(vocab_size=64, d_model=16, n_heads=2, n_layers=1, d_ffn=32,
                          max_seq_len=9, dtype=DOUBLE, lora=LoraConfig(r=2, dropout=0.0))
        model = build(cfg, Rng(7))
        tc = TrainConfig(micro_batch=micro_batch, accumulation_steps=accum, lr_max=1e-2,
                         warmup_steps=1, total_steps=20, max_grad_norm=1e9, seq_len=8,
                         seed=0, optimizer="sgd", checkpoint_every=20)
        train(model, windows, tc, out)
        return model

    m_accum = run(1, 4, tmp_path / "a")
    m_batch = run(4, 1, tmp_path / "b")
    worst = 0.0
    for (name, pa), (_, pb) in zip(m_accum.trainable_parameters(), m_batch.trainable_parameters()):
        worst = max(worst, float(np.abs(pa.value - pb.value).max()))
    assert worst < 1e-10
    announce(5, f"(B=1,N=4) vs (B=4,N=1) after 20 plain-SGD macro-steps: max diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. schedule anchors
# ---------------------------------------------------------------------------


def test_c06_schedule_anchors():
    cfg = TrainConfig(lr_max=5e-5, warmup_steps=100, total_steps=10000, seq_len=8)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(100, cfg) == 5e-5
    assert lr_at(10000, cfg) == 0.0
    assert lr_at(5050, cfg) == pytest.approx(2.5e-5, rel=1e-12)
    warm_side = cfg.lr_max * 100 / 100
    cos_side = cfg.lr_max * 0.5 * (1 + math.cos(0.0))
    assert warm_side == cos_side
    assert effective_batch(cfg) == 16
    announce(6, "lr(0)=0, lr(100)=5e-5, lr(10000)=0, lr(5050)=2.5e-5; "
                "warmup/cosine agree exactly at t=100")


# ---------------------------------------------------------------------------
# 7. clipping
# ---------------------------------------------------------------------------


def test_c07_clipping():
    fixtures = [
        {"a": np.full(1000, 1e6), "b": np.full(10, -1e6)},
        {"a": np.array([0.6])},
        {"a": np.full(64, 1e-30), "b": np.full(64, 1e30)},
        {"a": np.random.default_rng(3).normal(size=(100,)) * 1e4},
    ]
    worst = 0.0
    for grads in fixtures:
        clip_gradients(grads, 0.3)
        worst = max(worst, global_grad_norm(grads))
    assert worst <= 0.3 + 1e-12
    grads = {"a": np.array([0.6])}
    assert clip_gradients(grads, 0.3) == pytest.approx(0.5)
    announce(7, f"post-clip global norm <= 0.3 + 1e-12 on adversarial fixtures (max {worst:.12f})")


# ---------------------------------------------------------------------------
# 8. checkpointing exactness
# ---------------------------------------------------------------------------


def _grads_with_mode(checkpointing, layers, meter=None):
    cfg = ModelConfig(vocab_size=64, d_model=32, n_heads=4, n_layers=layers, d_ffn=64,
                      max_seq_len=16, lora=LoraConfig(r=4, dropout=0.1))
    model = build(cfg, Rng(8))
    window = np.array(Rng(9).integers(4, 64, (12,)))
    model.zero_grads()
    kwargs = dict(rng=Rng(10).split("d"), checkpointing=checkpointing)
    if meter is not None:
        with meter.scope():
            loss = model.loss(window, **kwargs)
            backward(loss)
    else:
        loss = model.loss(window, **kwargs)
        backward(loss)
    return {n: p.grad.copy() for n, p in model.trainable_parameters() if p.grad is not None}


def test_c08_checkpointing_exactness():
    plain = _grads_with_mode(False, layers=2)
    ckpt = _grads_with_mode(True, layers=2)
    assert set(plain) == set(ckpt)
    for name in plain:
        assert np.array_equal(plain[name], ckpt[name]), name

    high_water = {}
    for mode in (False, True):
        ledger = MemoryLedger()
        meter = ActivationMeter(ledger)
        _grads_with_mode(mode, layers=4, meter=meter)
        high_water[mode] = ledger.device_high_water
    assert high_water[True] < high_water[False]
    announce(8, f"gradients bit-identical with recomputation; activation high-water "
                f"{high_water[True]} < {high_water[False]} bytes at 4 layers")


# ---------------------------------------------------------------------------
# 9. end-to-end learning  +  10. frozen base
# ---------------------------------------------------------------------------


def test_c09_end_to_end_learning(prep50kb, training_run):
    losses = [m.loss for m in training_run["result"].metrics]
    assert len(losses) == 500
    first = float(np.mean(losses[:20]))
    last = float(np.mean(losses[-20:]))
    assert last < 0.6 * first

    # single-batch overfit: one fixed window of 32 predicted tokens
    window = np.array(Rng(9).integers(4, 64, (33,)))[None, :]
    cfg = ModelConfig(vocab_size=64, d_model=64, n_heads=4, n_layers=2, d_ffn=256,
                      max_seq_len=33, lora=LoraConfig(r=8, dropout=0.0))
    model = build(cfg, Rng(7))
    tc = TrainConfig(micro_batch=1, accumulation_steps=1, lr_max=1e-2, warmup_steps=10,
                     total_steps=500, max_grad_norm=1.0, seq_len=32, seed=0,
                     checkpoint_every=500)
    t0 = time.monotonic()
    out_dir = os.path.join(str(training_run["out"]), "overfit")
    result = train(model, window, tc, out_dir)
    overfit_losses = [m.loss for m in result.metrics]
    reached = next((i + 1 for i, l in enumerate(overfit_losses) if l < 0.05), None)
    overfit_seconds = time.monotonic() - t0
    assert reached is not None and reached <= 500

    total = prep50kb["prep_seconds"] + training_run["train_seconds"] + overfit_seconds
    assert total < 300.0
    announce(9, f"500-step corpus run: last-20 mean {last:.3f} < 60% of first-20 {first:.3f} "
                f"(ratio {last / first:.3f}); overfit < 0.05 at step {reached}; "
                f"total {total:.0f}s < 300s")


def test_c10_frozen_base(training_run):
    assert training_run["model"].base_bytes() == training_run["base_bytes_before"]
    announce(10, "quantized base tensor bytes identical after 500 optimizer steps")


# ---------------------------------------------------------------------------
# 11. preprocessing goldens
# ---------------------------------------------------------------------------


def test_c11_preprocessing_goldens(tmp_path):
    # fixture tables
    assert clean("hello مرحبا world") == "مرحبا"
    assert clean("مرحبا   بكم") == "مرحبا بكم"
    assert clean("plain latin") == ""
    assert normalize("أإآ", POLICY) == "ااا"
    assert normalize("مـــرحبا", POLICY) == "مرحبا"
    strip_on = NormalizationPolicy(strip_diacritics=True)
    assert handle_diacritics("كَتَبَ", strip_on) == "كتب"
    assert handle_diacritics("كَتَبَ", POLICY) == "كَتَبَ"
    assert segment_sentences("ذهبت؟ نعم.") == ["ذهبت؟", "نعم."]
    assert segment_sentences("بلا فواصل") == ["بلا فواصل"]
    assert morph_presegment("والكتاب") == f"و{BOUNDARY}ال{BOUNDARY}كتاب"
    assert morph_presegment("كتاب") == "كتاب"

    # pipeline idempotence over 1e4 docs
    for d in synth_raw_docs(10_000, seed=13):
        once = preprocess_text(d["text"], POLICY)
        assert preprocess_text(once, POLICY) == once

    # BPE vs brute-force oracle on corpora <= 200 bytes
    from tests.test_bpe_shards import oracle_merges

    for corpus in (["ابابab"], ["الكتاب الكبير", "الكتاب الصغير"], ["aaaa bb aaaa"]):
        assert sum(len(t.encode()) for t in corpus) <= 200
        vocab = bpe_train(corpus, vocab_size=300)
        assert vocab.merges == oracle_merges(corpus, 40)

    # shard round trip is exact
    docs = prepare_documents(synth_raw_docs(40, seed=14), POLICY)
    vocab = bpe_train((d.text for d in docs), vocab_size=384)
    write_encoded_shards(docs, vocab, POLICY, tmp_path)
    reader = ShardReader(tmp_path)
    for i, doc in enumerate(docs):
        assert reader.doc_tokens(i).tolist() == vocab.encode(doc.text)
    announce(11, "normalization/diacritics/segmentation goldens, 1e4-doc idempotence, "
                 "BPE oracle equality, exact shard round trip")


# ---------------------------------------------------------------------------
# 12. metric oracles
# ---------------------------------------------------------------------------


class _UniformModel(PositionLogitsModel):
    def __init__(self, v):
        self.v = v

    def logits_at(self, positions):
        return np.zeros((len(positions), self.v))


class _TableModel(_UniformModel):
    def __init__(self, v, seed):
        super().__init__(v)
        self.table = np.random.default_rng(seed).normal(size=(64, v))

    def logits_at(self, positions):
        return self.table[positions]


def test_c12_metric_oracles():
    # perplexity equals vocab size under uniform logits
    assert perplexity(_UniformModel(256), [[1, 2, 3]]) == pytest.approx(256.0, abs=1e-6)

    # perplexity equals an independent NLL walker within 1e-6
    model = _TableModel(11, seed=15)
    seq = [3, 7, 1, 9, 5]
    logits = model.forward_ids(np.asarray([1, *seq][:-1]))
    walker_nll = 0.0
    for pos, tok in enumerate(seq):
        probs = np.exp(logits[pos]) / np.exp(logits[pos]).sum()
        walker_nll += -math.log(probs[tok])
    assert perplexity(model, [seq]) == pytest.approx(math.exp(walker_nll / len(seq)), abs=1e-6)

    # qa/bleu hand fixtures
    assert qa_f1("واحد اثنان", ["واحد اثنان ثلاثة اربعة"]) == pytest.approx(2 / 3)
    assert exact_match("كَتَبَ أحمد", ["كتب احمد"]) == 1
    assert qa_f1("شمس", ["قمر"]) == 0.0
    assert bleu("the cat sat", ["the cat sat down"]) == pytest.approx(math.exp(1 - 4 / 3), rel=1e-12)
    assert bleu("واحد اثنان ثلاثة اربعة", ["واحد اثنان ثلاثة اربعة"]) == pytest.approx(1.0)

    # perturb level 0 is identity
    text = "الطقس جميل اليوم"
    for seed in range(5):
        assert perturb(text, 0.0, seed=seed) == text

    # 8-bit optimizer trajectory tracks full-precision Adam within 1e-2 per step
    from desklora.numcore import Parameter

    def quadratic(quantized):
        p = Parameter([1.0], DOUBLE, name="w")
        opt = AdamW(quantized=quantized)
        trace = []
        for _ in range(200):
            opt.step([("w", p)], {"w": 2.0 * p.value}, lr=0.1)
            trace.append(float(p.value[0]))
        return trace

    full = quadratic(False)
    q8 = quadratic(True)
    per_step = max(abs(a - b) for a, b in zip(full, q8))
    assert abs(full[-1]) < 1e-2
    assert per_step < 1e-2
    announce(12, f"perplexity oracles exact; F1/EM/BLEU fixtures; perturb(0) identity; "
                 f"8-bit Adam tracks full precision within {per_step:.2e}/step")


# ---------------------------------------------------------------------------
# 13. robustness curve and report shapes
# ---------------------------------------------------------------------------


def test_c13_robustness_and_reports(prep50kb, training_run, tmp_path):
    vocab = prep50kb["vocab"]
    model = training_run["model"]
    texts = ["الطقس جميل اليوم", "ذهب الولد الي المدرسة"]
    pcfg = PerturbationConfig(levels=(0.0, 0.5), seed=3)
    curve = robustness_curve(model, texts, vocab, POLICY, pcfg, max_new=16)
    sims = dict(curve)
    assert sims[0.0] == 1.0
    assert sims[0.0] >= sims[0.5] - 0.05

    lm_items = [
        {"text": "الطقس جميل اليوم", "dialect": "MSA"},
        {"text": "مدينة كبيرة وبحر جميل", "dialect": "MSA"},
        {"text": "الدنيا حر النهاردة", "dialect": "EGY"},
    ]
    from desklora.evalharness import EvalSet

    sets = {"lm": EvalSet(kind="lm", items=lm_items)}
    report = dialect_breakdown(model, sets, vocab, POLICY, metadata={"model_hash": "trained"})
    base_report = dialect_breakdown(training_run["base_model"], sets, vocab, POLICY)
    report.curves["robustness"] = curve
    report.comparison = {
        metric: {
            dialect: {"finetuned": value, "base": base_report.tables[metric][dialect]}
            for dialect, value in row.items()
        }
        for metric, row in report.tables.items()
    }
    paths = emit_report(report, tmp_path)
    parsed = json.loads(open(paths["json"], encoding="utf-8").read())
    validate_report(parsed)
    assert parsed["comparison"]["perplexity"]["MSA"].keys() == {"finetuned", "base"}
    assert set(parsed["tables"]["perplexity"]) == {"MSA", "EGY"}

    csv_lines = open(paths["csv"], encoding="utf-8").read().strip().splitlines()
    assert csv_lines[0] == "kind,metric,dialect,level,value"
    assert sum(1 for l in csv_lines if l.startswith("curve,robustness")) == 2

    # fine-tuning helped: lower perplexity than the untouched base on MSA text
    assert report.tables["perplexity"]["MSA"] < base_report.tables["perplexity"]["MSA"]
    announce(13, f"similarity(0)=1.0, similarity(0.5)={sims[0.5]:.3f}; report/CSV shapes valid; "
                 f"base-vs-finetuned MSA perplexity "
                 f"{base_report.tables['perplexity']['MSA']:.1f} -> "
                 f"{report.tables['perplexity']['MSA']:.1f}")


# ---------------------------------------------------------------------------
# 14. CLI determinism
# ---------------------------------------------------------------------------


def test_c14_cli_determinism(tmp_path):
    corpus = tmp_path / "docs.jsonl"
    write_jsonl(corpus, synth_raw_docs(100, seed=23))
    write_jsonl(tmp_path / "lm.jsonl", [{"text": "الطقس جميل اليوم"}])

    def run_all(tag):
        root = tmp_path / tag
        assert cli.main(["prep", "--input", str(corpus), "--out", str(root / "shards"),
                         "--vocab-size", "384"]) == 0
        assert cli.main(["train", "--shards", str(root / "shards"), "--out", str(root / "run"),
                         "--steps", "5", "--warmup", "1", "--seq-len", "24", "--lr", "1e-3",
                         "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
                         "--d-ffn", "32", "--rank", "2", "--checkpoint-every", "5",
                         "--seed", "11"]) == 0
        assert cli.main(["eval", "--checkpoint", str(root / "run" / "step_000005"),
                         "--shards", str(root / "shards"), "--out", str(root / "rep"),
                         "--lm", str(tmp_path / "lm.jsonl"), "--max-new", "4"]) == 0
        return root

    a = run_all("a")
    b = run_all("b")

    for rel in ("shards/manifest.json", "shards/shard_0000.bin", "shards/vocab.json",
                "run/step_000005/model.qnf4", "run/step_000005/adapters.lora",
                "run/step_000005/optimizer.st8", "rep/report.json", "rep/curves.csv"):
        assert sha256_file(a / rel) == sha256_file(b / rel), rel

    def metrics_without_wall(root):
        lines = (root / "run" / "metrics.csv").read_text().strip().splitlines()
        return [",".join(l.split(",")[:-1]) for l in lines]

    assert metrics_without_wall(a) == metrics_without_wall(b)
    announce(14, "prep, train, and eval artifacts hash-identical across reruns "
                 "(wall-clock column excluded)")
