"""Reference matrices of the semigroup models, built from their construction
data alone (phase diagonals, shifted identities, roll (x) I, block diagonals
and B* M B), so that tests never check a model's evolution against itself."""

import numpy as np
import scipy.linalg

from stablesemi.semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    MultiplicationGroup,
    PeriodicShiftGroup,
    ShiftSemigroup,
)


def operator_matrix(T, t, rows=None):
    """Matrix of T(t) in weighted coordinates on a payload of `rows` rows
    (default: the model's grid).  A truncated shift maps onto the payload
    extended by its shifted cells; a periodic shift pads a payload shorter
    than its period."""
    k = T.grid.size if rows is None else rows
    if isinstance(T, MultiplicationGroup):
        return np.diag(np.exp(1j * t * T.symbol))
    if isinstance(T, ShiftSemigroup):
        d = round(t / T.step) * T.fiber_dim
        return np.eye(k + d, k, k=-d)
    if isinstance(T, PeriodicShiftGroup):
        nc, m = T.period_cells, T.fiber_dim
        roll = np.kron(np.roll(np.eye(nc), round(t / T.step), axis=0), np.eye(m))
        return scipy.linalg.block_diag(roll, np.eye(max(k - nc * m, 0)))[:, :k]
    if isinstance(T, DirectSumSemigroup):
        return scipy.linalg.block_diag(*(
            operator_matrix(p, t, g.size)[: g.size] for p, g in zip(T.parts, T.space.components)))
    if isinstance(T, ConjugatedGroup):
        return T.basis.conj().T @ operator_matrix(T.inner, t) @ T.basis
    raise TypeError(f"no reference for {type(T).__name__}")


def weighted(x):
    """Weighted coordinates sqrt(mu) x of a vector."""
    return np.sqrt(x.grid.weights) * x.coeffs
