"""Splitting a datum along a critical subspace.

A proper nontrivial subspace E is critical when dim E = sum_i c_i dim(B_i E).
Along such a subspace the problem decouples: the datum restricted to E and
the datum induced on the orthogonal complement (with each factor projected
onto the complement of B_i E) multiply, constant-wise. This module builds the
two induced data and checks that product relation numerically.

One rank rule, read by is_critical, restrict and quotient: dim B_i E counts
the singular values of B_i E above RANK_TOL * ||B_i||, the norm the datum
keeps (one stacked SVD per factor group), 0 for a zero map. Measured against
B_i, not against itself, the roundoff in an image that is zero in exact
arithmetic (a datum mapped by M, split along M^-1 E) has dimension 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._linalg import numerical_rank, rank_and_norm
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


def _images(datum: BLDatum, E: Subspace) -> list:
    """(factor, B_i @ E.basis, dim B_i E by the rank rule) per factor, from
    one stacked product and rank_and_norm call per group; 0 for a zero map."""
    if E.n != datum.n:
        raise ValueError(f"subspace lives in R^{E.n}, datum in R^{datum.n}")
    images = {}
    for g in datum.groups:
        M = g.B @ E.basis
        ranks, _ = rank_and_norm(M, [datum.norms[i] for i in g.indices])
        images.update((i, (M[j], int(r))) for j, (i, r) in enumerate(zip(g.indices, ranks)))
    return [(f, *images[i]) if i in images else (f, f.B @ E.basis, 0) for i, f in enumerate(datum.factors)]


def restrict(datum: BLDatum, E: Subspace) -> BLDatum:
    """Datum induced on E: factor i becomes B_i restricted to E, written in
    an orthonormal basis of B_i E. A factor whose restriction vanishes stays
    in the list as an exact zero map (BLDatum leaves it out of `active`)."""
    return _restrict(E, _images(datum, E))


def _restrict(E: Subspace, images) -> BLDatum:
    factors = []
    for f, M, r in images:
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
    return _quotient(E, _images(datum, E))


def _quotient(E: Subspace, images) -> BLDatum:
    F = E.complement()
    factors = []
    for f, M, r in images:
        if r == f.target_dim:
            continue  # B_i E is everything; nothing survives the projection
        U, _, _ = np.linalg.svd(M, full_matrices=True)
        factors.append(LinearFactor(f.c, U[:, r:].T @ f.B @ F))
    if not factors:
        raise DatumError("every factor died in the quotient; the subspace is not proper "
                         "for this datum")
    return BLDatum(E.n - E.dim, tuple(factors))


def is_critical(datum: BLDatum, E: Subspace) -> bool:
    """dim E = sum_i c_i dim(B_i E) within CRITICAL_TOL (zero maps contribute zero)."""
    return _critical(E, _images(datum, E))


def _critical(E: Subspace, images) -> bool:
    return abs(E.dim - sum(f.c * r for f, _, r in images)) <= CRITICAL_TOL


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
    return next(_multiplicativity_checks(datum, [E], solve_opts))


def _multiplicativity_checks(datum: BLDatum, subspaces, solve_opts):
    """multiplicativity_check along each subspace in turn, from one rank pass
    each; the full datum is solved once, after the first pieces are built."""
    full = None
    for E in subspaces:
        images = _images(datum, E)
        if not _critical(E, images):
            raise ValueError("subspace is not critical for this datum; "
                             "the product identity does not apply")
        pieces = {"restriction to E": _restrict(E, images), "quotient on the complement": _quotient(E, images)}
        if full is None:
            full = _converged("full datum", datum, solve_opts)
        yield SplitResult(full, *(_converged(name, d, solve_opts) for name, d in pieces.items()))


def _converged(name: str, datum: BLDatum, solve_opts) -> SolveResult:
    res = solve(datum, **solve_opts)
    if not res.converged:
        raise ConvergenceError(f"no converged solve of the {name}")
    return res


def coordinate_subspaces(n: int):
    """All proper nontrivial coordinate subspaces of R^n (n <= 6)."""
    if n > 6:
        raise ValueError("coordinate enumeration is capped at n = 6 (2^n - 2 candidates)")
    for k in range(1, n):
        for combo in itertools.combinations(range(n), k):
            yield Subspace.coordinate(n, combo)
