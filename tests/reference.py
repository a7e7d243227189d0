"""Reference matrices of the semigroup models, built from their construction
data alone (phase diagonals, shifted identities, rolls, block diagonals and
B* M B), so that tests never check a model's evolution against itself; the
weighted inner product of two vectors; and a multiplication group's spectral
atoms, one frequency at a time."""

import numpy as np
import scipy.linalg

from stablesemi.hilbert import GridMismatchError
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
        d = round(t / T.step)
        return np.eye(k + d, k, k=-d)
    if isinstance(T, PeriodicShiftGroup):
        nc = T.period_cells
        roll = np.roll(np.eye(nc), round(t / T.step), axis=0)
        return scipy.linalg.block_diag(roll, np.eye(max(k - nc, 0)))[:, :k]
    if isinstance(T, DirectSumSemigroup):
        return scipy.linalg.block_diag(*(
            operator_matrix(p, t, g.size)[: g.size] for p, g in zip(T.parts, T.space.components)))
    if isinstance(T, ConjugatedGroup):
        return T.basis.conj().T @ operator_matrix(T.inner, t) @ T.basis
    raise TypeError(f"no reference for {type(T).__name__}")


def inner_product(x, y):
    """Weighted inner product, linear in x and conjugate-linear in y."""
    if not x.grid.same_as(y.grid):
        raise GridMismatchError("inner product requires a shared grid")
    return complex((x.grid.weights * x.coeffs * np.conj(y.coeffs)).sum())


def weighted(x):
    """Weighted coordinates sqrt(mu) x of a vector."""
    return np.sqrt(x.grid.weights) * x.coeffs


def atom_masses(symbol, weights):
    """{frequency: its grid weight over the total mass}, one distinct
    frequency at a time, ascending."""
    total = float(np.sum(weights))
    masses = {}
    for lam in sorted(set(np.asarray(symbol).tolist())):
        mass = 0.0
        for q, w in zip(symbol, weights):
            if q == lam:
                mass += w
        masses[lam] = mass / total
    return masses


def atoms(masses, threshold):
    """The (frequency, mass) pairs of `atom_masses` above the threshold,
    heaviest first; a stable sort, so equal masses stay in frequency order."""
    return sorted(((lam, m) for lam, m in masses.items() if m > threshold), key=lambda fm: -fm[1])
