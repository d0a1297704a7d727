"""The binary container shared by QNF4, QST8, LORA, OPT8 and DMDL.

Every truncation and every single-byte flip of an artifact either loads and
survives first use, or raises FormatError; no other exception gets out.
"""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import desklora
from desklora import quant
from desklora.binfmt import Reader, Writer
from desklora.errors import FormatError
from desklora.lora import LoraConfig, apply_adapter_state, dumps_adapters, loads_adapters
from desklora.model import ModelConfig, build, load_model, save_model
from desklora.numcore import DOUBLE, FULL, Parameter, Rng
from desklora.trainer import AdamW, Sgd


class TestReader:
    def sample(self) -> bytes:
        w = Writer(b"TEST", 3)
        w.pack("If", 7, 0.5)
        w.text("نص")
        w.shape((2, 3))
        w.array(np.arange(6), "<f8")
        return w.getvalue()

    def test_round_trip(self):
        r = Reader(self.sample(), b"TEST", 3)
        assert r.unpack("If") == (7, 0.5)
        assert r.text() == "نص"
        shape = r.shape()
        assert shape == (2, 3)
        arr = r.array("<f8", shape)
        r.done()
        assert np.array_equal(arr, np.arange(6).reshape(2, 3))
        arr[0, 0] = 1.0  # a writable copy

    @pytest.mark.parametrize("data, magic, version", [
        (b"", b"TEST", 3),
        (b"TES", b"TEST", 3),
        (b"XEST\x03\x00", b"TEST", 3),
        (b"TEST\x04\x00", b"TEST", 3),
    ])
    def test_header_rejected(self, data, magic, version):
        with pytest.raises(FormatError):
            Reader(data, magic, version)

    def test_trailing_byte_rejected(self):
        r = Reader(self.sample() + b"\x00", b"TEST", 3)
        r.unpack("If")
        r.text()
        r.array("<f8", r.shape())
        with pytest.raises(FormatError, match="1 trailing bytes"):
            r.done()

    def test_rank_numpy_cannot_hold_rejected(self):
        w = Writer(b"TEST", 3)
        w.shape((0,) * 65)  # zero elements, so no short read
        r = Reader(w.getvalue(), b"TEST", 3)
        with pytest.raises(FormatError, match="rank 65"):
            r.array("<f4", r.shape())

    def test_huge_length_is_a_short_read(self):
        w = Writer(b"TEST", 3)
        w.shape((2**32 - 1, 2**32 - 1))
        r = Reader(w.getvalue(), b"TEST", 3)
        with pytest.raises(FormatError, match="truncated"):
            r.array("<f4", r.shape())


def test_struct_confined_to_the_container_and_shards():
    """Binary layouts live in binfmt (and the zero-copy shard reader), so no
    other module imports `struct` to unpack bytes by hand."""
    root = pathlib.Path(desklora.__file__).parent
    allowed = {"binfmt.py", "arabicprep/shards.py"}
    offenders = [
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() not in allowed
        and re.search(r"^\s*(import struct\b|from struct import)", path.read_text(encoding="utf-8"), re.M)
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# corruption: one small artifact of each kind, each with its first use
# ---------------------------------------------------------------------------


def _tiny_model(dtype=FULL):
    cfg = ModelConfig(vocab_size=16, d_model=8, n_heads=2, n_layers=1, d_ffn=16, max_seq_len=8,
                      diacritic_bias=0.5, dtype=dtype, lora=LoraConfig(r=2, dropout=0.0))
    model = build(cfg, Rng(0), np.arange(16) % 3 == 0)
    for i, layer in enumerate(model.adapted_layers()):
        layer.adapter.b.assign(Rng(10 + i).normal((8, 2), std=0.1))
    return model


def _param():
    # 600 elements: three 256-element blocks per 8-bit moment, the last one partial
    return [("w", Parameter(np.linspace(-1.0, 1.0, 600), FULL, name="w"))]


def _optimizer_blob(opt) -> bytes:
    params = _param()
    for k in range(2):
        opt.step(params, {"w": np.linspace(0.5, 1.5, 600) * (k + 1)}, lr=0.01)
    return opt.dumps()


def _use_optimizer(make):
    def use(data, _):
        opt = make()
        opt.loads(data)
        opt.step(_param(), {"w": np.full(600, 0.1)}, lr=0.01)
    return use


def _use_model(data, tmp_dir):
    path = tmp_dir / "model.dmdl"
    path.write_bytes(data)
    load_model(path).forward_ids([1, 2, 3, 4])


def _model_blob(model, tmp_dir) -> bytes:
    save_model(model, tmp_dir / "source.dmdl")
    return (tmp_dir / "source.dmdl").read_bytes()


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("binfmt")


@pytest.fixture(scope="module")
def artifacts(tmp_dir):
    """kind -> (intact bytes, first use of possibly corrupted bytes)."""
    model, target = _tiny_model(), _tiny_model()
    double, double_target = _tiny_model(DOUBLE), _tiny_model(DOUBLE)
    x = np.linspace(-1.0, 1.0, 40).reshape(5, 8) ** 3

    def use_qnf4(data, _):
        quant.dequantize(quant.loads_qnf4(data))

    return {
        "qnf4": (quant.dumps_qnf4(quant.quantize(x, 16)), use_qnf4),
        "qnf4_double_quant": (
            quant.dumps_qnf4(quant.quantize(x, 8, double_quant=True, dq_group=2)), use_qnf4),
        "qst8": (quant.dumps_state8(quant.quantize_state8(x, 16)),
                 lambda data, _: quant.dequantize_state8(quant.loads_state8(data))),
        "lora": (dumps_adapters(model.adapted_layers(), model.cfg.lora),
                 lambda data, _: apply_adapter_state(target.adapted_layers(), loads_adapters(data))),
        "lora_double": (dumps_adapters(double.adapted_layers(), double.cfg.lora),
                        lambda data, _: apply_adapter_state(double_target.adapted_layers(),
                                                            loads_adapters(data))),
        "opt8_adamw8": (_optimizer_blob(AdamW(quantized=True)),
                        _use_optimizer(lambda: AdamW(quantized=True))),
        "opt8_adamw": (_optimizer_blob(AdamW(quantized=False)),
                       _use_optimizer(lambda: AdamW(quantized=False))),
        "opt8_sgd": (_optimizer_blob(Sgd()), _use_optimizer(Sgd)),
        "dmdl": (_model_blob(model, tmp_dir), _use_model),
        "dmdl_double": (_model_blob(double, tmp_dir), _use_model),
    }


KINDS = ["dmdl", "dmdl_double", "lora", "lora_double", "opt8_adamw", "opt8_adamw8", "opt8_sgd",
         "qnf4", "qnf4_double_quant", "qst8"]


@pytest.mark.parametrize("kind", KINDS)
def test_intact_artifact_survives_first_use(kind, artifacts, tmp_dir):
    blob, use = artifacts[kind]
    use(blob, tmp_dir)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a flipped exponent overflows in forward
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_corruption_loads_or_raises_format_error(kind, artifacts, tmp_dir, data):
    blob, use = artifacts[kind]
    op = data.draw(st.sampled_from(["truncate", 0x01, 0xFF]), label="op")
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    if op == "truncate":
        with pytest.raises(FormatError):
            use(blob[:at], tmp_dir)
        return
    flipped = bytearray(blob)
    flipped[at] ^= op
    try:
        use(bytes(flipped), tmp_dir)
    except FormatError:
        pass
