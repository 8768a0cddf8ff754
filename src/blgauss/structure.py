"""Splitting a datum along a critical subspace.

A proper nontrivial subspace E is critical when dim E = sum_i c_i dim(B_i E).
Along such a subspace the problem decouples: the datum restricted to E and
the datum induced on the orthogonal complement (with each factor projected
onto the complement of B_i E) multiply, constant-wise. This module builds the
two induced data and checks that product relation numerically.

One rank rule, read by is_critical, restrict and quotient: dim B_i E counts
the singular values of B_i E above RANK_TOL * ||B_i||, the norm the datum
keeps, and is 0 for a zero map. Measured against B_i, not against itself,
the roundoff in an image that is zero in exact arithmetic (a datum mapped by
M, split along M^-1 E) has dimension 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._linalg import numerical_rank
from .datum import BLDatum, DatumError, LinearFactor
from .gaussian_solver import ConvergenceError, SolveResult, solve

CRITICAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Subspace:
    """Proper nontrivial subspace given by an orthonormal column basis."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        if not np.isfinite(basis).all():
            raise ValueError("subspace basis has non-finite entries")
        n, k = basis.shape
        if not 1 <= k < n:
            raise ValueError(f"subspace must be proper and nontrivial, got shape {basis.shape}")
        gram = basis.T @ basis
        if np.abs(gram - np.eye(k)).max() > 1e-12:
            raise ValueError("basis columns must be orthonormal to 1e-12")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def complement(self) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement, as columns."""
        U, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return U[:, self.dim :]

    @classmethod
    def from_rows(cls, rows) -> "Subspace":
        """Span of the given (not necessarily orthonormal) row vectors, one
        row or a non-empty 2-d array of them, with finite entries."""
        try:
            rows = np.atleast_2d(np.asarray(rows, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"subspace rows must be an array of numbers: {exc}") from exc
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError(f"subspace rows must be a non-empty 2-d array, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("subspace rows have non-finite entries")
        k = numerical_rank(rows)
        if k < rows.shape[0]:
            raise ValueError("subspace rows are linearly dependent")
        Q, _ = np.linalg.qr(rows.T)
        return cls(Q[:, :k])

    @classmethod
    def coordinate(cls, n: int, indices) -> "Subspace":
        return cls(np.eye(n)[:, list(indices)])


def _images(datum: BLDatum, E: Subspace):
    """(factor, B_i @ E.basis, dim B_i E by the rank rule) for each factor."""
    if E.n != datum.n:
        raise ValueError(f"subspace lives in R^{E.n}, datum in R^{datum.n}")
    for f, norm in zip(datum.factors, datum.norms):
        M = f.B @ E.basis
        yield f, M, numerical_rank(M, norm) if norm else 0


def restrict(datum: BLDatum, E: Subspace) -> BLDatum:
    """Datum induced on E: factor i becomes B_i restricted to E, written in
    an orthonormal basis of B_i E. A factor whose restriction vanishes stays
    in the list as an exact zero map (BLDatum leaves it out of `active`)."""
    factors = []
    for f, M, r in _images(datum, E):
        if r == 0:
            factors.append(LinearFactor(f.c, np.zeros((f.target_dim, E.dim))))
        else:
            U, _, _ = np.linalg.svd(M, full_matrices=True)
            factors.append(LinearFactor(f.c, U[:, :r].T @ M))
    return BLDatum(E.dim, tuple(factors))


def quotient(datum: BLDatum, E: Subspace) -> BLDatum:
    """Datum induced on the orthogonal complement of E: factor i becomes
    B_i followed by the projection onto the complement of B_i E, written in
    orthonormal bases on both sides. Factors whose projected target is
    zero-dimensional are dropped; zero maps with a nontrivial target are
    kept and flagged."""
    F = E.complement()
    factors = []
    for f, M, r in _images(datum, E):
        if r == f.target_dim:
            continue  # B_i E is everything; nothing survives the projection
        U, _, _ = np.linalg.svd(M, full_matrices=True)
        factors.append(LinearFactor(f.c, U[:, r:].T @ f.B @ F))
    if not factors:
        raise DatumError("every factor died in the quotient; the subspace is not proper "
                         "for this datum")
    return BLDatum(datum.n - E.dim, tuple(factors))


def is_critical(datum: BLDatum, E: Subspace) -> bool:
    """dim E = sum_i c_i dim(B_i E) within CRITICAL_TOL (zero maps contribute zero)."""
    total = sum(f.c * r for f, _, r in _images(datum, E))
    return abs(E.dim - total) <= CRITICAL_TOL


@dataclass
class SplitResult:
    full: SolveResult
    restricted: SolveResult
    quotient: SolveResult

    @property
    def constant(self) -> float:
        return self.full.constant

    @property
    def restricted_constant(self) -> float:
        return self.restricted.constant

    @property
    def quotient_constant(self) -> float:
        return self.quotient.constant

    @property
    def gap(self) -> float:
        product = self.restricted.constant * self.quotient.constant
        return abs(self.full.constant - product) / self.full.constant

    def to_dict(self) -> dict:
        return {
            "constant": self.full.constant,
            "restricted_constant": self.restricted.constant,
            "quotient_constant": self.quotient.constant,
            "gap": self.gap,
        }


def multiplicativity_check(datum: BLDatum, E: Subspace, **solve_opts) -> SplitResult:
    """Solve the full, restricted, and quotient data and compare constants.

    Requires E critical (the product identity needs it). Raises
    ConvergenceError naming the piece whose solve did not converge."""
    if not is_critical(datum, E):
        raise ValueError("subspace is not critical for this datum; "
                         "the product identity does not apply")
    pieces = {
        "full datum": datum,
        "restriction to E": restrict(datum, E),
        "quotient on the complement": quotient(datum, E),
    }
    results = []
    for name, d in pieces.items():
        res = solve(d, **solve_opts)
        if not res.converged:
            raise ConvergenceError(f"no converged solve of the {name}")
        results.append(res)
    return SplitResult(*results)


def coordinate_subspaces(n: int):
    """All proper nontrivial coordinate subspaces of R^n (n <= 6)."""
    if n > 6:
        raise ValueError("coordinate enumeration is capped at n = 6 (2^n - 2 candidates)")
    for k in range(1, n):
        for combo in itertools.combinations(range(n), k):
            yield Subspace.coordinate(n, combo)
