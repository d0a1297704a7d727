import hashlib

import numpy as np
import pytest

from desklora import cli, quant
from desklora.quant import (
    DYNAMIC8_VALUES,
    NF4_OFFSET,
    NF4_VALUES,
    NF4_ZERO_CODE,
    QuantizedTensor,
    bits_per_param,
    dequantize,
    dequantize_state8,
    dumps_qnf4,
    loads_qnf4,
    max_half_gap,
    quantize,
    quantize_state8,
    quantized_nbytes,
    reconstructed_absmax,
)
from desklora.errors import FormatError
from tests.quant_oracles import nearest_codes


class TestCodebook:
    def test_structure(self):
        v = NF4_VALUES
        assert len(v) == 16
        assert np.all(np.diff(v) > 0)
        assert (v == 0.0).sum() == 1
        assert v[0] == -1.0 and v[-1] == 1.0
        assert (v < 0).sum() == 8 and (v > 0).sum() == 7
        assert v[NF4_ZERO_CODE] == 0.0

    def test_golden_against_quantile_oracle(self):
        """Re-derive the frozen constants from the normal inverse CDF."""
        norm = pytest.importorskip("scipy.stats").norm
        neg = -norm.ppf(np.linspace(NF4_OFFSET, 0.5, 9)[:-1])
        pos = norm.ppf(np.linspace(NF4_OFFSET, 0.5, 8)[:-1])
        vals = np.sort(np.concatenate([neg, [0.0], pos]))
        vals = vals / np.abs(vals).max()
        assert np.allclose(NF4_VALUES, vals, atol=1e-12)

    def test_max_half_gap_brute_force(self):
        gaps = [NF4_VALUES[i + 1] - NF4_VALUES[i] for i in range(15)]
        assert max_half_gap(NF4_VALUES) == pytest.approx(max(gaps) / 2)

    def test_dynamic8_structure(self):
        v = DYNAMIC8_VALUES
        assert len(v) == 255
        assert np.all(np.diff(v) > 0)
        assert (v == 0.0).sum() == 1
        assert v[0] == -1.0 and v[-1] == 1.0
        assert np.array_equal(v, -v[::-1])  # symmetric


class TestQuantizeRoundTrip:
    def test_all_zero_block(self):
        q = quantize(np.zeros(130))
        assert np.all(reconstructed_absmax(q) == 0)
        assert np.all(dequantize(q) == 0)

    def test_constant_block_exact(self):
        for c in (2.5, -3.7, 1e-3):
            x = np.full(100, c, dtype=np.float32)
            q = quantize(x)
            assert np.array_equal(dequantize(q), x)

    def test_codebook_fixed_points(self):
        absmax = 3.0
        x = (NF4_VALUES * absmax).astype(np.float32)
        q = quantize(x, block_size=16)
        assert np.array_equal(dequantize(q), x)

    def test_error_bound_million_normals(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10**6)
        q = quantize(x, 64)
        err = np.abs(dequantize(q, np.float64) - x)
        bound = np.repeat(q.absmax.astype(np.float64), 64)[: x.size] * max_half_gap(NF4_VALUES)
        assert np.all(err <= bound + 1e-9)
        # regression baseline measured at freeze time
        assert err.mean() == pytest.approx(0.0729, abs=0.002)

    def test_nearest_code_optimality_exhaustive(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(10**5)
        q = quantize(x, 64)
        absmax = np.repeat(q.absmax.astype(np.float64), 64)[: x.size]
        actual = np.abs(dequantize(q, np.float64) - x)
        all_recon = NF4_VALUES[None, :] * absmax[:, None]
        best = np.abs(all_recon - x[:, None]).min(axis=1)
        assert np.all(actual <= best + 1e-12)

    def test_tie_breaks_to_lower_code(self):
        mid = (NF4_VALUES[8] + NF4_VALUES[9]) / 2.0  # midpoint between 0 and next
        x = np.array([1.0, mid])  # absmax 1 so normalization is exact
        q = quantize(x, block_size=2)
        codes = quant._unpack4(q.codes, 2)
        assert codes[1] == 8  # the lower of the tied pair

    def test_midpoint_count_matches_the_binary_search(self):
        """The NF4 code is the count of midpoints below the value, which is the
        left-sided binary search over them: on random values, exact midpoints,
        their neighbours, the levels, +-1 and 0."""
        mids = (NF4_VALUES[:-1] + NF4_VALUES[1:]) / 2.0
        for x in (np.random.default_rng(16).uniform(-1.0, 1.0, 100_000), mids,
                  np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf), NF4_VALUES,
                  np.array([1.0, -1.0, 0.0, -0.0])):
            assert np.array_equal(quant._nearest_nf4(x), nearest_codes(x, NF4_VALUES))

    def test_non_finite_rejected(self):
        x = np.ones(10)
        x[7] = np.nan
        with pytest.raises(ValueError, match="7"):
            quantize(x)
        x[7] = np.inf
        with pytest.raises(ValueError):
            quantize(x)

    @pytest.mark.parametrize("block_size", [1, 64])
    def test_absmax_beyond_float32_rejected(self, block_size):
        with pytest.raises(ValueError, match="block 0 has absmax 1e\\+39, beyond float32"):
            quantize(np.array([1e39, 1.0]), block_size)
        with pytest.raises(ValueError, match="beyond float32"):
            quantize_state8(np.array([1e39, 1.0]), block_size)
        largest = float(np.finfo(np.float32).max)
        assert np.isfinite(quantize_state8(np.array([largest, 1.0]), block_size).absmax).all()

    def test_scale_equivariance_power_of_two(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(512)
        q1 = quantize(x, 64)
        for k in (2.0, 0.25, 1024.0):
            q2 = quantize(k * x, 64)
            assert np.array_equal(q1.codes, q2.codes)
            assert np.allclose(q2.absmax, k * q1.absmax, rtol=1e-7)

    def test_scale_equivariance_codes_arbitrary_k(self):
        rng = np.random.default_rng(3)
        x = np.round(rng.standard_normal(256), 3)  # coarse values keep ratios off midpoints
        q1 = quantize(x, 64)
        q2 = quantize(1.7 * x, 64)
        assert np.array_equal(q1.codes, q2.codes)

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1000).astype(np.float32)
        q1 = quantize(x, 64)
        q2 = quantize(dequantize(q1), 64)
        assert np.array_equal(q1.codes, q2.codes)
        assert np.array_equal(q1.absmax, q2.absmax)

    def test_idempotence_with_double_quant(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64 * 300).astype(np.float32)
        q1 = quantize(x, 64, double_quant=True)
        q2 = quantize(dequantize(q1), 64, double_quant=True)
        assert np.array_equal(q1.codes, q2.codes)

    def test_shape_preserved(self):
        x = np.random.default_rng(6).standard_normal((37, 21))
        assert dequantize(quantize(x)).shape == (37, 21)


class TestDoubleQuant:
    def test_absmax_reconstruction_bound(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64 * 1000)
        q_plain = quantize(x, 64)
        q_dq = quantize(x, 64, double_quant=True)
        recon = reconstructed_absmax(q_dq)
        true = q_plain.absmax
        for gi in range((true.size + 255) // 256):
            chunk = true[gi * 256 : (gi + 1) * 256]
            bound = (chunk.max() - chunk.min()) / 255.0
            err = np.abs(recon[gi * 256 : (gi + 1) * 256] - chunk)
            assert np.all(err <= bound + 1e-7)

    def test_composite_error_bound(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(64 * 512)
        q = quantize(x, 64, double_quant=True)
        true_absmax = np.abs(x.reshape(-1, 64)).max(axis=1)
        recon = reconstructed_absmax(q).astype(np.float64)
        dq_err = np.abs(recon - true_absmax)
        per_elem_bound = np.repeat(
            true_absmax * max_half_gap(NF4_VALUES) + dq_err, 64
        )
        err = np.abs(dequantize(q, np.float64) - x)
        assert np.all(err <= per_elem_bound + 1e-9)

    def test_zeros_round_trip(self):
        q = quantize(np.zeros(700), 64, double_quant=True)
        assert np.all(dequantize(q) == 0)


class TestBitsPerParam:
    def test_block64_no_dq(self):
        q = quantize(np.ones(64 * 256), 64)
        assert bits_per_param(q) == pytest.approx(4.5)

    def test_block64_dq_group256(self):
        q = quantize(np.ones(64 * 256), 64, double_quant=True)
        assert bits_per_param(q) == pytest.approx(4.0 + 8 / 64 + 64 / (64 * 256))
        assert bits_per_param(q) == pytest.approx(4.1289, abs=1e-4)

    def test_single_block_boundary(self):
        q = quantize(np.ones(64), 64)
        assert bits_per_param(q) == pytest.approx((4 * 64 + 32) / 64)
        qdq = quantize(np.ones(64), 64, double_quant=True)
        assert bits_per_param(qdq) == pytest.approx((4 * 64 + 8 + 64) / 64)

    def test_dq_cheaper_beyond_break_even(self):
        # 24 bits/block saved vs 64 bits/group added: DQ wins from 3 blocks up
        for n in (64 * 3, 640, 64 * 300):
            x = np.ones(n)
            assert bits_per_param(quantize(x, 64, double_quant=True)) < bits_per_param(
                quantize(x, 64)
            )

    def test_dq_overhead_below_break_even(self):
        x = np.ones(64)
        assert bits_per_param(quantize(x, 64, double_quant=True)) > bits_per_param(
            quantize(x, 64)
        )

    def test_nbytes_matches_bits(self):
        x = np.ones(64 * 256)
        for dq in (False, True):
            q = quantize(x, 64, double_quant=dq)
            assert quantized_nbytes(q) == int(bits_per_param(q) * q.numel / 8)


class TestState8:
    def test_zeros(self):
        q = quantize_state8(np.zeros(600))
        assert np.all(dequantize_state8(q) == 0)

    def test_constant_exact(self):
        x = np.full(300, 0.125, dtype=np.float32)
        q = quantize_state8(x)
        assert np.array_equal(dequantize_state8(q), x)
        xn = np.full(300, -2.0, dtype=np.float32)
        assert np.array_equal(dequantize_state8(quantize_state8(xn)), xn)

    def test_round_trip_bound_large(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(10**5)
        q = quantize_state8(x)
        err = np.abs(dequantize_state8(q, np.float64) - x)
        bound = (
            np.repeat(q.absmax.astype(np.float64), q.block_size)[: x.size]
            * max_half_gap(DYNAMIC8_VALUES)
        )
        assert np.all(err <= bound + 1e-9)

    def test_non_finite_rejected(self):
        x = np.ones(5)
        x[3] = -np.inf
        with pytest.raises(ValueError):
            quantize_state8(x)

    def test_small_relative_error_for_moments(self):
        # second-moment style data: positive, wide dynamic range
        rng = np.random.default_rng(10)
        v = np.exp(rng.uniform(size=4096) * 10 - 5)
        q = quantize_state8(v)
        rel = np.abs(dequantize_state8(q, np.float64) - v) / np.abs(v).max()
        assert rel.max() < 0.01


class TestNearestCodeTable:
    """The 8-bit lookup against the binary search it replaces, on every input
    where they could part: midpoints, their neighbours, signed zeros,
    subnormals and the extremes, then random draws."""

    @staticmethod
    def assert_same(x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        assert np.array_equal(quant._nearest_dynamic8(x), nearest_codes(x, DYNAMIC8_VALUES))

    def test_midpoints_and_their_neighbours(self):
        mids = (DYNAMIC8_VALUES[:-1] + DYNAMIC8_VALUES[1:]) / 2.0
        for x in (mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf), DYNAMIC8_VALUES):
            self.assert_same(x)

    def test_edges(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        self.assert_same([0.0, -0.0, 1.0, -1.0, tiny, -tiny, 1e-310, -1e-310,
                          np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0)])

    def test_random_draws(self):
        rng = np.random.default_rng(14)
        magnitude = np.exp(rng.uniform(-40.0, 0.0, 200_000))
        self.assert_same(rng.uniform(-1.0, 1.0, 200_000))
        self.assert_same(np.where(rng.random(200_000) < 0.5, -magnitude, magnitude))

    def test_each_bucket_holds_at_most_one_midpoint(self):
        assert quant._DYN8_BASE.size == 2 * 2797 + 254  # both signs, and the gap between them
        mids = (DYNAMIC8_VALUES[:-1] + DYNAMIC8_VALUES[1:]) / 2.0
        keys = mids[quant.DYNAMIC8_ZERO_CODE:].view(np.uint64) >> np.uint64(45)
        assert np.all(np.diff(keys) >= 1)

    def test_blocks8_round_trip_matches_the_state8_functions(self):
        x = np.random.default_rng(15).normal(size=(3, 256)) * [[1.0], [0.0], [1e-6]]
        codes, absmax = quant.encode_blocks8(x)
        q = quantize_state8(x.reshape(-1))
        assert np.array_equal(codes.reshape(-1), q.codes) and np.array_equal(absmax, q.absmax)
        assert np.array_equal(quant.decode_blocks8(codes, absmax).reshape(-1),
                              dequantize_state8(q, np.float64))


class TestSerialization:
    def test_qnf4_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((100, 37))
        for dq in (False, True):
            q = quantize(x, 64, double_quant=dq)
            q2 = loads_qnf4(dumps_qnf4(q))
            assert q2.shape == q.shape
            assert q2.block_size == q.block_size
            assert np.array_equal(q2.codes, q.codes)
            assert np.array_equal(dequantize(q2), dequantize(q))

    def test_golden_bytes(self):
        """Pinned bytes of both quantizers, all-zero blocks included; any change
        to padding, scaling, nearest-level choice or the zero code shows here.
        The 8-bit pin covers the codec's codes and absmax, with no file around them."""
        x = np.random.default_rng(7).normal(size=(37, 29))
        x.reshape(-1)[256:512] = 0.0  # whole blocks of zeros in both block sizes
        digest = lambda b: hashlib.sha256(b).hexdigest()
        assert digest(dumps_qnf4(quantize(x, 64, double_quant=True))) == (
            "c6faba167d345a59c6ae239b0a01b132ecf8022338276be63d6d1c818e589fca")
        q = quantize_state8(x)
        assert digest(q.codes.tobytes() + q.absmax.astype("<f4").tobytes()) == (
            "7542415843a6acf07571197da05f1bcf7b23bf6f219d225f80ffc9898a6747ef")

    def test_qnf4_deterministic_bytes(self):
        x = np.random.default_rng(12).standard_normal(500)
        assert dumps_qnf4(quantize(x)) == dumps_qnf4(quantize(x))

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            loads_qnf4(b"XXXX" + b"\x00" * 20)

    def test_truncation_detected(self):
        q = quantize(np.ones(100))
        data = dumps_qnf4(q)
        with pytest.raises(FormatError):
            loads_qnf4(data[:-2])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("field", ["absmax", "group_scale", "group_offset"])
    def test_damaged_scale_rejected(self, field, value):
        x = np.linspace(-1.0, 1.0, 40)
        q = quantize(x, 8, double_quant=field != "absmax", dq_group=2)
        getattr(q if field == "absmax" else q.dq, field)[1] = value
        with pytest.raises(FormatError, match=f"{field.replace('_', ' ')} NaN, infinite or negative"):
            loads_qnf4(dumps_qnf4(q))

    def test_rebuilt_absmax_beyond_float32_rejected(self, tmp_path, capsys):
        """A finite, non-negative group scale can still rebuild an infinite absmax."""
        q = quantize(np.linspace(-1.0, 1.0, 40), 8, double_quant=True, dq_group=2)
        q.dq.group_scale[0] = 1e37
        data = dumps_qnf4(q)
        with pytest.raises(FormatError, match="rebuilds an absmax beyond float32"):
            loads_qnf4(data)
        path = tmp_path / "w.qnf4"
        path.write_bytes(data)
        assert cli.main(["inspect", str(path)]) == 3
        assert capsys.readouterr().err.startswith("data error: ")
