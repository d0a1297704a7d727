"""AdamW's flat, chunked step against the per-parameter step it replaced,
its golden OPT8 bytes, the checks that load a saved state and bind it to a
model, its ledger charge and its traced memory."""

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
    dequantize_state8,
    quantize_state8,
)
from desklora.trainer import AdamW, MemoryLedger, Sgd
from desklora.trainer.optim import BETAS, CHUNK_ELEMENTS, EPS, WORKING_BYTES
from tests.conftest import opt8_moments
from tests.quant_oracles import nearest_codes


def oracle_quantize8(x) -> Quantized8bitState:
    """`quantize_state8` as it was: a binary search for each nearest code."""
    b = STATE8_BLOCK_SIZE
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    padded = np.zeros(-(-flat.size // b) * b)
    padded[:flat.size] = flat
    blocks = padded.reshape(-1, b)
    absmax = np.abs(blocks).max(axis=1)
    codes = nearest_codes(blocks / np.where(absmax == 0.0, 1.0, absmax)[:, None], DYNAMIC8_VALUES)
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
            g = grads[name]
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
    """One per-parameter moment: codes then absmax bytes, or its float64 values."""
    if quantized:
        return state.codes.tobytes() + state.absmax.astype("<f4").tobytes()
    return np.asarray(state, dtype="<f8").tobytes()


@pytest.mark.parametrize("quantized", [True, False])
@pytest.mark.parametrize("dtype", [FULL, DOUBLE])
def test_flat_step_equals_the_per_parameter_step(quantized, dtype):
    params, oracle_params = make_params(dtype), make_params(dtype)
    opt, oracle = AdamW(quantized=quantized), OracleAdamW(quantized)
    rng = np.random.default_rng(1)
    for k in range(6):
        grads = make_grads(params, rng, 10.0 ** (k - 3))
        opt.step(params, grads, lr=0.01)
        oracle.step(oracle_params, grads, lr=0.01)
        moments = opt8_moments(opt.dumps())
        for (name, p), (_, q) in zip(params, oracle_params):
            assert p.value.tobytes() == q.value.tobytes(), (k, name)
            for mine, theirs in zip(moments[name], oracle.moments[name]):
                assert state_bytes(mine, quantized) == state_bytes(theirs, quantized), (k, name)
    if quantized:
        gap_m = moments["gap"][0]  # the fixture did make an all-zero block
        assert gap_m.absmax[0] != 0 and gap_m.absmax[1] == 0
        assert np.all(gap_m.codes[256:512] == DYNAMIC8_ZERO_CODE)


def test_small_parameters_share_a_chunk_and_big_ones_have_their_own():
    params = [("a", Parameter(np.ones(10))), ("big", Parameter(np.ones(CHUNK_ELEMENTS + 1))),
              ("b", Parameter(np.ones(300))), ("c", Parameter(np.ones(5)))]
    opt = AdamW()
    opt.step(params, {n: np.ones(p.value.shape) for n, p in params}, lr=0.1)
    names = [[params[piece[0]][0] for piece in chunk] for chunk in opt._chunks]
    assert names == [["a"], ["big"], ["big", "b", "c"]]


def golden_run(quantized) -> tuple[str, str, str]:
    """sha256 of the parameters' bytes in order; of each parameter's name and
    per-parameter moments (`state_bytes`), names sorted; and of the OPT8 file."""
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
        opt.step(params, grads, lr=0.01)
    blob = opt.dumps()
    values, moments = hashlib.sha256(), hashlib.sha256()
    for _, p in params:
        values.update(p.value.tobytes())
    for name, states in sorted(opt8_moments(blob).items()):
        moments.update(name.encode())
        for state in states:
            moments.update(state_bytes(state, quantized))
    return values.hexdigest(), moments.hexdigest(), hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("quantized, digests", [
    (True, ("e94a1f2e5f8a25e98475af752c4e71d04ee8013da059c0e6b829eaa65135f776",
            "953dbd74fdbb136efcfa1c12c34b8dc3a0c8d9f21a1cf0462303e1a45ae39fc5",
            "91e27be3fa892b81163fd376a3970b6c88dbeb151a934511a8541c73e60ada33")),
    (False, ("206e00e9fe1d184385b1bb6dc389f2e56efc4b28a09d785d16afc26996748ee0",
             "b61c2e186abc8a631bc039cd79ba4a7c58f2f58c51b897b5d15355e5a37e040d",
             "bf31d5e2b38e1162b0198d117c7a339910ea8279c4dfa580da34036da3a4aa19")),
])
def test_golden_opt8_and_parameters(quantized, digests):
    """The parameter and moment digests are the ones the per-parameter step
    produced, and the flat step must keep them; the third pins the OPT8 bytes."""
    assert golden_run(quantized) == digests


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


def opt8_blob(moments: list, quantized=True, edit=None, kind=None) -> bytes:
    """An OPT8 file written here by its documented layout: m and v both hold
    `moments` [(name, values)], each parameter padded to whole blocks and laid
    end to end. `edit` may change m's flat arrays before they are written."""
    b = STATE8_BLOCK_SIZE
    w = Writer(b"OPT8", 3)
    w.text(kind or ("adamw8" if quantized else "adamw"))
    w.pack("II", 1, len(moments))
    for name, x in moments:
        w.text(name)
        w.shape(np.shape(x))
    if quantized:
        states = [quantize_state8(x) for _, x in moments]
        m = {"u1": np.concatenate([np.pad(q.codes, (0, -q.codes.size % b),
                                          constant_values=DYNAMIC8_ZERO_CODE) for q in states]),
             "<f4": np.concatenate([q.absmax for q in states])}
    else:
        m = {"<f8": np.concatenate([np.pad(np.ravel(x), (0, -np.size(x) % b)) for _, x in moments])}
    v = {dtype: arr.copy() for dtype, arr in m.items()}
    if edit is not None:
        edit(m)
    for moment in (m, v):
        for dtype, arr in moment.items():
            w.array(arr, dtype)
    return w.getvalue()


W600 = [("w", np.linspace(-1, 1, 600))]  # three blocks, the last one 88 elements and 168 padding


@pytest.mark.parametrize("quantized", [True, False])
def test_a_file_written_by_the_documented_layout_round_trips(quantized):
    """The file layout is the stepped one: the optimizer saves, to the byte,
    what this module writes from per-parameter moments."""
    p = Parameter(np.zeros(600), DOUBLE, name="w")
    opt = AdamW(quantized=quantized)
    opt.loads(opt8_blob(W600, quantized))
    assert opt.dumps() == opt8_blob(W600, quantized)
    opt.step([("w", p)], {"w": np.ones(600)}, lr=0.1)
    assert p.value.any()


@pytest.mark.parametrize("quantized", [True, False])
@pytest.mark.parametrize("saved, params", [
    ([("w", np.ones((4, 4)))], {"w": (5, 4)}),
    ([("w", np.ones((4, 4))), ("gone", np.ones(3))], {"w": (4, 4)}),
    ([("w", np.ones((4, 4)))], {"w": (4, 4), "new": (3,)}),
    ([("a", np.ones(3)), ("b", np.ones(3))], {"b": (3,), "a": (3,)}),
])
def test_state_laid_out_for_other_parameters_is_format_error(quantized, saved, params):
    opt = AdamW(quantized=quantized)
    opt.loads(opt8_blob(saved, quantized))
    params = [(n, Parameter(np.zeros(s), name=n)) for n, s in params.items()]
    with pytest.raises(FormatError, match="^optimizer state for "):
        opt.step(params, {n: np.ones(p.value.shape) for n, p in params}, lr=0.1)


def _set(key, index, value):
    def edit(m):
        m[key][index] = value
    return edit


@pytest.mark.parametrize("quantized, edit, match", [
    (True, _set("u1", 599, 200), None),  # the last real element: no padding
    (True, _set("u1", 600, DYNAMIC8_ZERO_CODE + 1), "padding of 'w' is not zero"),
    (True, _set("u1", 767, 0), "padding of 'w' is not zero"),
    (False, _set("<f8", 700, 1e-30), "padding of 'w' is not zero"),
    (True, _set("u1", 5, 255), "code outside the 8-bit codebook"),
    (True, _set("<f4", 2, np.nan), "block absmax NaN, infinite or negative"),
    (True, _set("<f4", 0, np.inf), "block absmax NaN, infinite or negative"),
    (True, _set("<f4", 1, -1.0), "block absmax NaN, infinite or negative"),
    (False, _set("<f8", 3, np.nan), "moment value NaN or infinite"),
    (False, _set("<f8", 599, -np.inf), "moment value NaN or infinite"),
])
def test_a_damaged_state_is_format_error(quantized, edit, match):
    blob = opt8_blob(W600, quantized, edit)
    if match is None:
        AdamW(quantized=quantized).loads(blob)
        return
    with pytest.raises(FormatError, match=f"^OPT8: {match}"):
        AdamW(quantized=quantized).loads(blob)


def test_a_repeated_name_is_format_error():
    with pytest.raises(FormatError, match="parameter 'w' listed twice"):
        AdamW().loads(opt8_blob(W600 * 2))


def test_sgd_state_with_parameters_is_format_error():
    with pytest.raises(FormatError, match="sgd state lists 1 parameters"):
        Sgd().loads(opt8_blob(W600, quantized=False, kind="sgd"))


def test_a_version_2_file_is_format_error():
    w = Writer(b"OPT8", 2)
    w.text("adamw8")
    w.pack("II", 1, 0)
    with pytest.raises(FormatError, match="unsupported version 2, expected 3"):
        AdamW().loads(w.getvalue())


@pytest.mark.parametrize("make", [lambda: AdamW(quantized=True), lambda: AdamW(quantized=False),
                                  Sgd])
def test_loads_then_dumps_gives_the_same_bytes(make):
    params = [("a", Parameter(np.linspace(-1, 1, 300))), ("b", Parameter(np.ones((2, 3))))]
    opt = make()
    for k in range(3):
        opt.step(params, {"a": np.full(300, 0.1 * k), "b": np.ones((2, 3))}, lr=0.1)
    blob = opt.dumps()
    loaded = make()
    loaded.loads(blob)
    assert loaded.step_count == 3 and loaded.dumps() == blob
    for o in (loaded, opt):
        o.step(params, {"a": np.ones(300), "b": np.ones((2, 3))}, lr=0.1)
    assert loaded.dumps() == opt.dumps()


@pytest.mark.parametrize("make", [AdamW, Sgd])
def test_a_missing_gradient_is_contract_error(make):
    """The first parameter without a gradient is named, and nothing is stepped."""
    params = [(n, Parameter(np.ones(k))) for n, k in (("a", 3), ("b", 2), ("c", 4))]
    opt = make()
    with pytest.raises(ContractError, match="no gradient for parameter 'b'"):
        opt.step(params, {"a": np.ones(3)}, lr=0.1)
    assert opt.step_count == 0
    assert all(np.all(p.value == 1.0) for _, p in params)


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
