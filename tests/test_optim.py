"""AdamW's flat, chunked step against the per-parameter step it replaced,
its golden OPT8 bytes, the checks that bind a loaded state to a model, its
ledger charge and its traced memory."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from desklora.binfmt import Writer
from desklora.errors import ContractError, FormatError, TrainingError
from desklora.lora import LoraConfig
from desklora.model import ModelConfig, build
from desklora.numcore import DOUBLE, FULL, Parameter, Rng
from desklora.quant import (
    DYNAMIC8_VALUES,
    DYNAMIC8_ZERO_CODE,
    STATE8_BLOCK_SIZE,
    Quantized8bitState,
    _nearest_codes,
    dequantize_state8,
    dumps_state8,
    quantize_state8,
)
from desklora.trainer import AdamW, MemoryLedger
from desklora.trainer.optim import BETAS, CHUNK_ELEMENTS, EPS, WORKING_BYTES


def oracle_quantize8(x) -> Quantized8bitState:
    """`quantize_state8` as it was: a binary search for each nearest code."""
    b = STATE8_BLOCK_SIZE
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    padded = np.zeros(-(-flat.size // b) * b)
    padded[:flat.size] = flat
    blocks = padded.reshape(-1, b)
    absmax = np.abs(blocks).max(axis=1)
    codes = _nearest_codes(blocks / np.where(absmax == 0.0, 1.0, absmax)[:, None], DYNAMIC8_VALUES)
    codes[absmax == 0.0] = DYNAMIC8_ZERO_CODE
    return Quantized8bitState(np.shape(x), codes.reshape(-1)[:flat.size], absmax.astype(np.float32), b)


class OracleAdamW:
    """The per-parameter step: each moment dequantized over the whole tensor,
    Adam in float64, requantized."""

    def __init__(self, quantized):
        self.quantized = quantized
        self.t = 0
        self.moments = {}

    def step(self, params, grads, lr):
        self.t += 1
        t, (b1, b2) = self.t, BETAS
        for name, p in params:
            g = grads.get(name)
            if g is None:
                continue
            if name not in self.moments:
                zeros = np.zeros(p.value.shape)
                self.moments[name] = ((oracle_quantize8(zeros), oracle_quantize8(zeros))
                                      if self.quantized else (zeros, zeros.copy()))
            g64 = g.astype(np.float64)
            m, v = self.moments[name]
            if self.quantized:
                m, v = dequantize_state8(m, np.float64), dequantize_state8(v, np.float64)
            m = b1 * m + (1 - b1) * g64
            v = b2 * v + (1 - b2) * g64 * g64
            m_hat = m / (1 - b1**t)
            v_hat = np.maximum(v / (1 - b2**t), 0.0)
            p.assign(p.value - lr * (m_hat / (np.sqrt(v_hat) + EPS)))
            if self.quantized:
                m, v = oracle_quantize8(m), oracle_quantize8(v)
            self.moments[name] = (m, v)


SHAPES = {
    "big": (129, 131),  # 16,899 elements: more than one chunk, a partial last block
    "odd": (7, 5),
    "gap": (600,),  # gradient zero on its middle block: an all-zero block
    "zero": (40,),  # gradient always zero: an all-zero moment
    "row": (3, 100),
}


def make_params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    return [(n, Parameter(rng.normal(size=s), dtype, name=n)) for n, s in SHAPES.items()]


def make_grads(params, rng, scale):
    grads = {}
    for name, p in params:
        g = rng.normal(size=p.value.shape) * scale
        if name == "zero":
            g[:] = 0.0
        if name == "gap":
            g[256:512] = 0.0
        grads[name] = g.astype(p.value.dtype)
    return grads


def state_bytes(state, quantized) -> bytes:
    return dumps_state8(state) if quantized else np.asarray(state, dtype="<f8").tobytes()


@pytest.mark.parametrize("quantized", [True, False])
@pytest.mark.parametrize("dtype", [FULL, DOUBLE])
def test_flat_step_equals_the_per_parameter_step(quantized, dtype):
    params, oracle_params = make_params(dtype), make_params(dtype)
    opt, oracle = AdamW(quantized=quantized), OracleAdamW(quantized)
    rng = np.random.default_rng(1)
    for k in range(6):
        grads = make_grads(params, rng, 10.0 ** (k - 3))
        if k == 3:
            del grads["odd"]  # absent for one step: value and moments untouched
        before = opt.moments.get("odd") if k == 3 else None
        opt.step(params, grads, lr=0.01)
        oracle.step(oracle_params, grads, lr=0.01)
        for (name, p), (_, q) in zip(params, oracle_params):
            assert p.value.tobytes() == q.value.tobytes(), (k, name)
            for mine, theirs in zip(opt.moments[name], oracle.moments[name]):
                assert state_bytes(mine, quantized) == state_bytes(theirs, quantized), (k, name)
        if before is not None:
            for old, new in zip(before, opt.moments["odd"]):
                assert state_bytes(old, quantized) == state_bytes(new, quantized)
    if quantized:
        gap_m = opt.moments["gap"][0]  # the fixture did make an all-zero block
        assert gap_m.absmax[0] != 0 and gap_m.absmax[1] == 0
        assert np.all(gap_m.codes[256:512] == DYNAMIC8_ZERO_CODE)


def test_small_parameters_share_a_chunk_and_big_ones_have_their_own():
    params = [("a", Parameter(np.ones(10))), ("big", Parameter(np.ones(CHUNK_ELEMENTS + 1))),
              ("b", Parameter(np.ones(300))), ("c", Parameter(np.ones(5)))]
    opt = AdamW()
    opt.step(params, {n: np.ones(p.value.shape) for n, p in params}, lr=0.1)
    names = [[params[piece[0]][0] for piece in chunk] for chunk in opt._chunks]
    assert names == [["a"], ["big"], ["big", "b", "c"]]


def golden_run(quantized) -> str:
    rng = np.random.default_rng(2412)
    shapes = {"big": ((129, 131), FULL), "odd": ((7, 5), DOUBLE), "zero": ((40,), FULL),
              "ln": ((64,), FULL)}
    params = [(n, Parameter(rng.normal(size=s), d, name=n)) for n, (s, d) in shapes.items()]
    opt = AdamW(quantized=quantized)
    for k in range(4):
        grads = {}
        for n, p in params:
            g = rng.normal(size=p.value.shape) * 10.0 ** (k - 2)
            if n == "zero":
                g = np.zeros_like(g)
            grads[n] = g.astype(p.value.dtype)
        if k == 2:
            del grads["odd"]
        opt.step(params, grads, lr=0.01)
    h = hashlib.sha256(opt.dumps())
    for _, p in params:
        h.update(p.value.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("quantized, digest", [
    (True, "b70ad27ab8036d645654c835e8e8f775720c5da724b8727c2398dfc7f7f1e983"),
    (False, "dd25b29037c2de0ec92d415c881c3008da93c9364b9a48bc65f751092fb210b5"),
])
def test_golden_opt8_and_parameters(quantized, digest):
    """Digests the per-parameter step produced; the flat step must keep them."""
    assert golden_run(quantized) == digest


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("quantized", [True, False])
@pytest.mark.parametrize("bad", ["b", "big"])
def test_non_finite_moment_names_the_parameter_and_step(quantized, bad):
    params = [(n, Parameter(np.zeros(s), DOUBLE, name=n))
              for n, s in (("a", (20,)), ("b", (30,)), ("big", (CHUNK_ELEMENTS + 7,)))]
    opt = AdamW(quantized=quantized)
    opt.step(params, {n: np.ones(p.value.shape) for n, p in params}, lr=0.1)
    grads = {n: np.ones(p.value.shape) for n, p in params}
    grads[bad][-1] = 1e200  # its square overflows the second moment
    with pytest.raises(TrainingError, match=f"non-finite moments for '{bad}' at step 2") as e:
        opt.step(params, grads, lr=0.1)
    assert e.value.step == 2


@pytest.mark.parametrize("quantized", [True, False])
def test_a_moment_beyond_float32_stops_only_the_8bit_state(quantized):
    """v = 0.001·g² = 1e39 is a float64 but no float32 absmax."""
    p = Parameter(np.zeros(600), DOUBLE, name="w")
    opt = AdamW(quantized=quantized)
    step = lambda: opt.step([("w", p)], {"w": np.full(600, 1e21)}, lr=0.1)
    if not quantized:
        step()
        return
    with pytest.raises(TrainingError, match="non-finite moments for 'w' at step 1 .* fit float32"):
        step()
    assert not p.value.any()


def opt8_blob(moments: dict, block_size=STATE8_BLOCK_SIZE) -> bytes:
    w = Writer(b"OPT8", 2)
    w.text("adamw8")
    w.pack("II", 1, len(moments))
    for name, x in moments.items():
        w.text(name)
        for _ in range(2):
            w.blob(dumps_state8(quantize_state8(x, block_size)))
    return w.getvalue()


@pytest.mark.parametrize("moments, params, match", [
    ({"w": np.ones((4, 4))}, {"w": (5, 4)}, r"'w' has shape \(4, 4\), the parameter \(5, 4\)"),
    ({"w": np.ones((4, 4)), "gone": np.ones(3)}, {"w": (4, 4)}, r"\['gone'\], which the model lacks"),
])
def test_state_that_does_not_fit_the_model_is_format_error(moments, params, match):
    opt = AdamW()
    opt.loads(opt8_blob(moments))
    params = [(n, Parameter(np.zeros(s), name=n)) for n, s in params.items()]
    with pytest.raises(FormatError, match=match):
        opt.step(params, {n: np.ones(p.value.shape) for n, p in params}, lr=0.1)


def test_state_in_other_blocks_is_format_error():
    blob = opt8_blob({"w": np.linspace(-1, 1, 600)}, block_size=16)
    with pytest.raises(FormatError, match="blocks of 16, expected 256"):
        AdamW().loads(blob)


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_state_with_a_damaged_absmax_is_format_error(value):
    blob = opt8_blob({"w": np.linspace(-1, 1, 600)})
    q = quantize_state8(np.linspace(-1, 1, 600))
    q.absmax[2] = value
    blob = blob.replace(dumps_state8(quantize_state8(np.linspace(-1, 1, 600))), dumps_state8(q), 1)
    with pytest.raises(FormatError, match="QST8: block absmax NaN, infinite or negative"):
        AdamW().loads(blob)


def test_a_changed_parameter_list_is_contract_error():
    opt = AdamW()
    opt.step([("w", Parameter(np.zeros(4)))], {"w": np.ones(4)}, lr=0.1)
    with pytest.raises(ContractError):
        opt.step([("w", Parameter(np.zeros(5)))], {"w": np.ones(5)}, lr=0.1)


@pytest.mark.parametrize("quantized, per_element, per_block", [(True, 1, 4), (False, 8, 0)])
def test_ledger_charges_the_padded_state_and_the_working_set(quantized, per_element, per_block):
    params = [("a", Parameter(np.zeros(300))), ("b", Parameter(np.zeros(5)))]  # 2 + 1 blocks
    grads = {"a": np.ones(300), "b": np.ones(5)}
    ledger = MemoryLedger()
    opt = AdamW(quantized=quantized, ledger=ledger)
    opt.step(params, grads, lr=0.1)
    charged = 2 * 3 * (STATE8_BLOCK_SIZE * per_element + per_block) + WORKING_BYTES
    assert ledger.totals["optimizer_states"] == charged

    resumed_ledger = MemoryLedger()
    resumed = AdamW(quantized=quantized, ledger=resumed_ledger)
    resumed.loads(opt.dumps())
    resumed.step(params, grads, lr=0.1)
    assert resumed_ledger.totals["optimizer_states"] == charged
    resumed.loads(opt.dumps())  # loading again releases the bound state's charge
    assert resumed_ledger.totals["optimizer_states"] == 0


def test_step_memory_is_bounded_by_a_chunk_at_vocab_8192():
    """One step's traced peak: the largest parameter's new value plus the
    chunk allowance the ledger charges. A per-parameter step peaked at
    40.4 MB here, dequantizing the [8192, 64] embedding's moments to float64."""
    cfg = ModelConfig(vocab_size=8192, d_model=64, n_heads=4, n_layers=2, d_ffn=256,
                      max_seq_len=129, lora=LoraConfig(r=8))
    params = build(cfg, Rng(0)).trainable_parameters()
    rng = np.random.default_rng(0)
    grads = {n: (rng.normal(size=p.value.shape) * 1e-3).astype(np.float32) for n, p in params}
    opt = AdamW(ledger=MemoryLedger())
    opt.step(params, grads, lr=1e-3)  # binds the layout
    largest = max(p.value.nbytes for _, p in params)
    assert largest == 8192 * 64 * 4
    tracemalloc.start()
    try:
        opt.step(params, grads, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= largest + WORKING_BYTES, (peak, largest, WORKING_BYTES)
