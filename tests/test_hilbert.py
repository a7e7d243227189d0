import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablesemi.hilbert import (
    DenseSequence,
    GridMismatchError,
    HVector,
    SumSpace,
    WeightedGrid,
    pad_to_grid,
)
from stablesemi.semigroups import ConjugatedGroup, MultiplicationGroup

from reference import inner_product, weighted


def _vec(grid, seed):
    rng = np.random.default_rng(seed)
    return HVector(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))


class TestWeightedGrid:
    def test_uniform(self):
        g = WeightedGrid.uniform(4, 0.25)
        assert g.size == 4
        np.testing.assert_allclose(g.weights, 0.25)
        assert g.weights.sum() == pytest.approx(1.0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedGrid(np.arange(3.0), np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError):
            WeightedGrid(np.array([0.0, bad, 2.0]), np.ones(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            WeightedGrid(np.arange(3.0), np.ones(2))

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_rejects_complex_points(self, imag):
        # a cast to float would drop the imaginary part, zero or not
        with pytest.raises(ValueError, match="real"):
            WeightedGrid(np.arange(3.0) + imag * 1j, np.ones(3))

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_rejects_complex_weights(self, imag):
        with pytest.raises(ValueError, match="real"):
            WeightedGrid(np.arange(3.0), np.ones(3) + imag * 1j)

    def test_arrays_read_only(self):
        g = WeightedGrid.uniform(3)
        with pytest.raises(ValueError):
            g.points[0] = 5.0

    def test_same_as(self):
        g = WeightedGrid.uniform(3)
        assert g.same_as(WeightedGrid.uniform(3))
        assert not g.same_as(WeightedGrid.uniform(4))


class TestHVector:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HVector(WeightedGrid.uniform(3), np.array([1.0, bad, 0.0]))

    def test_norm_uniform(self):
        g = WeightedGrid.uniform(4, 0.25)
        x = HVector(g, np.ones(4))
        assert x.norm() == pytest.approx(1.0)

    def test_normalized(self):
        x = _vec(WeightedGrid.uniform(8, 0.3), 3)
        assert x.normalized().norm() == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 40))
    def test_cauchy_schwarz(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = WeightedGrid(np.arange(dim, dtype=float), rng.uniform(0.1, 2.0, dim))
        x, y = _vec(g, seed + 1), _vec(g, seed + 2)
        lhs = abs(inner_product(x, y))
        assert lhs <= x.norm() * y.norm() + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 40))
    def test_parallelogram_law(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = WeightedGrid(np.arange(dim, dtype=float), rng.uniform(0.1, 2.0, dim))
        x, y = _vec(g, seed + 1), _vec(g, seed + 2)
        lhs = sum(HVector(g, x.coeffs + c * y.coeffs).norm() ** 2 for c in (1.0, -1.0))
        rhs = 2.0 * (x.norm() ** 2 + y.norm() ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, rhs))


# Every array a grid, vector or model is built from: a constructor from the
# array, and a valid value for it (real or complex as the field is).
INTAKE = {
    "points": (lambda a: WeightedGrid(a, np.ones(3)), np.arange(3.0)),
    "weights": (lambda a: WeightedGrid(np.arange(3.0), a), np.full(3, 0.5)),
    "coeffs": (lambda a: HVector(WeightedGrid.uniform(3), a), np.array([1.0, 2j, -1.0])),
    "symbol": (lambda a: MultiplicationGroup(WeightedGrid.uniform(3), a), np.arange(3.0)),
    "basis": (lambda a: ConjugatedGroup(WeightedGrid.uniform(3), a, MultiplicationGroup(
        WeightedGrid.uniform(3), np.arange(3.0))), np.eye(3)[::-1] * 1j),
}


@pytest.mark.parametrize("field", INTAKE)
class TestIntake:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_rejects_non_finite_entry(self, field, bad):
        # a complex entry in a real field is refused as complex, before the cast
        make, good = INTAKE[field]
        a = good.astype(np.result_type(good, bad))
        a.flat[1] = bad
        with pytest.raises(ValueError, match=f"{field} must be (finite|real)"):
            make(a)

    def test_complex_value_raises_where_real(self, field):
        make, good = INTAKE[field]
        a = good + 0j
        if np.iscomplexobj(good):
            np.testing.assert_array_equal(getattr(make(a), field), good)
        else:
            with pytest.raises(ValueError, match=f"{field} must be real"):
                make(a)

    def test_stored_array_is_contiguous_and_read_only(self, field):
        make, good = INTAKE[field]
        strided = np.stack([good, good], axis=-1)[..., 0]
        assert not strided.flags.c_contiguous
        stored = getattr(make(strided), field)
        assert stored.flags.c_contiguous and not stored.flags.writeable
        assert stored.dtype == good.dtype
        np.testing.assert_array_equal(stored, good)
        with pytest.raises(ValueError):
            stored.flat[0] = 0.0


def _embed(space, block, x):
    """x on the block's grid, zero elsewhere in the sum space."""
    c = np.zeros(space.combined.size, dtype=complex)
    lo = space.offsets[block]
    c[lo:lo + x.grid.size] = x.coeffs
    return HVector(space.combined, c)


class TestSumSpace:
    def test_embedding_is_isometric(self):
        g1, g2 = WeightedGrid.uniform(3, 0.5), WeightedGrid.uniform(5, 0.2)
        space = SumSpace((g1, g2))
        x = _vec(g1, 4)
        emb = _embed(space, 0, x)
        assert emb.norm() == pytest.approx(x.norm(), abs=1e-14)
        assert space.combined.size == 8

    def test_offsets_invert_embed(self):
        g1, g2 = WeightedGrid.uniform(3), WeightedGrid(np.arange(5.0), np.linspace(0.1, 0.5, 5))
        space = SumSpace((g1, g2))
        assert space.offsets == (0, 3)
        np.testing.assert_array_equal(space.combined.weights[3:], g2.weights)
        np.testing.assert_array_equal(space.combined.points[:3], g1.points)
        x = _vec(g2, 5)
        emb = _embed(space, 1, x)
        np.testing.assert_array_equal(emb.coeffs[3:], x.coeffs)
        np.testing.assert_array_equal(emb.coeffs[:3], 0.0)

    def test_pythagoras_across_blocks(self):
        g1, g2 = WeightedGrid.uniform(3, 0.7), WeightedGrid.uniform(4, 0.1)
        space = SumSpace((g1, g2))
        a, b = _vec(g1, 6), _vec(g2, 7)
        s = HVector(space.combined, _embed(space, 0, a).coeffs + _embed(space, 1, b).coeffs)
        assert s.norm() ** 2 == pytest.approx(a.norm() ** 2 + b.norm() ** 2)


class TestAlignment:
    def test_pad_preserves_norm(self):
        big = WeightedGrid(np.arange(7, dtype=float), np.full(7, 0.5))
        # prefix grids: padding appends zeros
        small = WeightedGrid(np.arange(4, dtype=float), np.full(4, 0.5))
        x = _vec(small, 8)
        padded = pad_to_grid(x, big)
        assert padded.grid.size == 7
        assert padded.norm() == pytest.approx(x.norm(), abs=1e-14)

    def test_align_rejects_unrelated_grids(self):
        x = _vec(WeightedGrid(np.array([0.0, 1.0]), np.ones(2)), 0)
        y = _vec(WeightedGrid(np.array([0.0, 2.0]), np.ones(2)), 1)
        with pytest.raises(GridMismatchError):
            pad_to_grid(x, y.grid)
        with pytest.raises(GridMismatchError):
            pad_to_grid(y, x.grid)

    def test_difference_norm_across_extension(self):
        g = WeightedGrid(np.arange(4, dtype=float), np.ones(4))
        gx = WeightedGrid(np.arange(6, dtype=float), np.ones(6))
        x = HVector(g, np.array([1.0, 2.0, 0.0, 0.0]))
        y = HVector(gx, np.array([1.0, 0.0, 0.0, 0.0, 3.0, 0.0]))
        p = pad_to_grid(x, gx)
        assert np.linalg.norm(weighted(p) - weighted(y)) == pytest.approx(np.sqrt(4.0 + 9.0))
        assert inner_product(p, y) == pytest.approx(1.0)
        with pytest.raises(GridMismatchError):
            pad_to_grid(y, g)


class TestDenseSequence:
    def test_gaussian_deterministic(self):
        g = WeightedGrid.uniform(10)
        a = DenseSequence.gaussian(g, count=5, seed=3)
        b = DenseSequence.gaussian(g, count=5, seed=3)
        assert len(a) == 5
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u.coeffs, v.coeffs)

    def test_rejects_zero_vector(self):
        g = WeightedGrid.uniform(3)
        z = HVector(g, np.zeros(3))
        with pytest.raises(ValueError):
            DenseSequence((z,))
