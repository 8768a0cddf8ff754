"""Brascamp-Lieb datum: weighted surjective linear maps from a common space.

A datum is a list of factors (c_i, B_i) with c_i > 0 and B_i a linear map
from R^n onto R^{n_i}. The exact zero map is allowed as a degenerate marker
(it contributes nothing to the inequalities and is excluded from all
bookkeeping); a non-zero map that fails to be onto is malformed. Every check
runs once, when the datum is built: a malformed datum is refused there, and
a BLDatum keeps its non-zero factors, their groups by target dimension, the
verdicts on the whole datum (homogeneity defect, degeneracy, a kernel that
breaks the dimension condition by count alone) and its decomposition map,
which the other layers read instead of recomputing them.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._linalg import RANK_TOL, numerical_rank, rank_and_norm

# Entries at or below this (in max-abs) mean "exactly the zero map".
ZERO_MAP_TOL = 1e-14

# Homogeneity defect beyond this means the objective cannot have a finite
# supremum with equality anywhere; refuse instead of iterating.
HOMOGENEITY_TOL = 1e-9


class DatumError(ValueError):
    """Malformed datum: bad shapes, non-positive weight, or a map that is not onto."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class LinearFactor:
    """One weighted factor (c, B) with B of shape (target_dim, n); a value, as is BLDatum."""

    c: float
    B: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise DatumError(f"factor weight must be positive and finite, got {self.c}")
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] < 1 or B.shape[1] < 1:
            raise DatumError(f"factor map must be a 2-d array, got shape {B.shape}")
        if not np.all(np.isfinite(B)):
            raise DatumError("factor map has non-finite entries")
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "B", _readonly(B))

    @property
    def target_dim(self) -> int:
        return self.B.shape[0]

    def is_zero(self) -> bool:
        return bool(np.abs(self.B).max() <= ZERO_MAP_TOL)

    def _content(self) -> tuple:
        return self.c, self.B.shape, self.B.tobytes()

    def __eq__(self, other):
        return isinstance(other, LinearFactor) and self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())


class FactorGroup(NamedTuple):
    """The non-zero factors of one target dimension k, in datum order, so
    that one stacked linear-algebra call serves every factor of a group. The
    arrays are read-only."""

    positions: list[int]  # places in BLDatum.active, as in a tuple
    indices: list[int]  # factor indices
    c: np.ndarray  # (m_k,) weights
    B: np.ndarray  # (m_k, k, n) maps
    cb: np.ndarray  # (m_k, 1, 1) weights, to scale a stack of matrices
    sqrt_cb: np.ndarray  # (m_k, 1, 1) their square roots


@dataclass(frozen=True)
class BLDatum:
    """Ambient dimension n plus the factor list, checked when it is built.

    active              indices of the non-zero factors, in datum order; a
                        tuple of matrices has one per entry, in this order.
    groups              the non-zero factors grouped by target dimension.
    norms               each factor's largest singular value ||B_i||, 0 for
                        a zero map.
    homogeneity_defect  sum of c_i * n_i over non-zero factors, minus n.
    degenerate          the non-zero maps fail to jointly separate points
                        (equivalently the adjoints fail to jointly span R^n);
                        both constants are +inf for such a datum.
    kernel_witness      the first non-zero factor j with n_j < n whose kernel
                        V = ker B_j breaks the dimension condition
                        dim V <= sum_i c_i dim(B_i V) of Bennett-Carbery-
                        Christ-Tao on the weights and target dimensions
                        alone: dim(B_i V) <= min(n_i, n - n_j) and B_j V = 0,
                        so n - n_j > sum_{i != j} c_i min(n_i, n - n_j) +
                        HOMOGENEITY_TOL proves both constants +inf. None
                        when no factor does; an equality case never fires.
    decomposition       read-only (pinv(L), K) for L = [c_i B_i^T], the map
                        (x_i) |-> sum_i c_i B_i^T x_i over non-zero factors,
                        and K an orthonormal basis of ker L: the
                        decompositions of x are pinv(L) x + K t. Formed on
                        the first read; DatumError on every read of a
                        degenerate datum, whose L is not onto.
    """

    n: int
    factors: tuple[LinearFactor, ...]
    active: tuple[int, ...] = field(init=False, repr=False, compare=False)
    groups: tuple[FactorGroup, ...] = field(init=False, repr=False, compare=False)
    norms: tuple[float, ...] = field(init=False, repr=False, compare=False)
    homogeneity_defect: float = field(init=False, repr=False, compare=False)
    degenerate: bool = field(init=False, repr=False, compare=False)
    kernel_witness: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if isinstance(n, bool) or not (isinstance(n, numbers.Integral)
                                       or isinstance(n, float) and n.is_integer()):
            raise DatumError(f"ambient dimension must be an integer, got {n!r}")
        if n < 1:
            raise DatumError(f"ambient dimension must be >= 1, got {n}")
        n, factors = int(n), tuple(self.factors)
        if not factors:
            raise DatumError("datum needs at least one factor")
        for i, f in enumerate(factors):
            if f.B.shape[1] != n:
                raise DatumError(f"factor {i} maps from R^{f.B.shape[1]}, datum is on R^{n}")
        active = tuple(i for i, f in enumerate(factors) if not f.is_zero())
        by_dim: dict[int, list[int]] = {}
        for p, i in enumerate(active):
            by_dim.setdefault(factors[i].target_dim, []).append(p)
        groups, norms, short = [], [0.0] * len(factors), []
        for pos in by_dim.values():
            indices = [active[p] for p in pos]
            c, B = _readonly([factors[i].c for i in indices]), _readonly([factors[i].B for i in indices])
            groups.append(FactorGroup(pos, indices, c, B, c[:, None, None],
                                      _readonly(np.sqrt(c))[:, None, None]))
            # one stacked SVD per factor group gives its ranks and norms
            for i, r, s in zip(indices, *rank_and_norm(B)):
                norms[i] = float(s)
                if r < B.shape[1]:
                    short.append((i, int(r), B.shape[1]))
        if short:  # the first factor that is not onto is named
            raise DatumError("factor {} has rank {} < target dimension {}; "
                             "a non-zero factor map must be onto".format(*min(short)))
        maps = [factors[i].B for i in active]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "norms", tuple(norms))
        object.__setattr__(self, "homogeneity_defect",
                           float(sum(factors[i].c * factors[i].target_dim for i in active) - n))
        object.__setattr__(self, "degenerate",
                           bool(not maps or numerical_rank(np.vstack(maps)) < n))
        object.__setattr__(self, "kernel_witness", _kernel_witness(n, active, factors))

    @cached_property
    def decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        if self.degenerate:
            raise DatumError("degenerate datum: the constraint map is not onto")
        L = np.hstack([self.factors[i].c * self.factors[i].B.T for i in self.active])
        return _readonly(np.linalg.pinv(L)), _readonly(np.linalg.svd(L)[2][self.n :].T)

    @property
    def m(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.target_dim for f in self.factors)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(f.c for f in self.factors)


def _kernel_witness(n: int, active: tuple[int, ...], factors: tuple[LinearFactor, ...]) -> int | None:
    """BLDatum.kernel_witness: the margins n - n_j - sum_{i != j} c_i
    min(n_i, n - n_j) of every non-zero factor at once, from counts only."""
    c = np.array([factors[i].c for i in active])
    dims = np.array([factors[i].target_dim for i in active])
    kernel = n - dims  # dim ker B_j
    spans = np.minimum(dims, kernel[:, None]) @ c  # row j: sum_i c_i min(n_i, n - n_j)
    margin = kernel - (spans - c * np.minimum(dims, kernel))
    hits = np.flatnonzero((kernel > 0) & (margin > HOMOGENEITY_TOL))
    return active[hits[0]] if hits.size else None


def make_datum(n: int, weights, maps) -> BLDatum:
    """Convenience constructor from parallel weight / matrix sequences."""
    return BLDatum(n, tuple(LinearFactor(c, B) for c, B in zip(weights, maps, strict=True)))


@dataclass
class DatumDiagnostics:
    """Result of validate(): global health indicators for a datum.

    homogeneity_defect, degenerate, kernel_witness  as on BLDatum.
    frame               every non-zero B_i B_i^T = id and the weighted sum
                        of B_i^T B_i is id, so identity solves the fixed
                        point and the constant is exactly 1.
    zero_map_indices    factors that are exactly the zero map.
    """

    homogeneity_defect: float
    degenerate: bool
    frame: bool
    zero_map_indices: list[int] = field(default_factory=list)
    kernel_witness: int | None = None

    def to_dict(self) -> dict:
        return {
            "homogeneity_defect": self.homogeneity_defect,
            "degenerate": self.degenerate,
            "frame": self.frame,
            "zero_map_indices": list(self.zero_map_indices),
            "kernel_witness": self.kernel_witness,
        }


def validate(datum: BLDatum) -> DatumDiagnostics:
    """Summarize a datum. It only reads it: a malformed datum was refused when
    it was built, and zero maps are legal and merely flagged here."""
    return DatumDiagnostics(datum.homogeneity_defect, datum.degenerate, is_frame(datum),
                            [i for i in range(datum.m) if i not in datum.active],
                            datum.kernel_witness)


def check_count(name: str, value, least: int) -> None:
    """ValueError unless value is an integer of at least `least`, the rule of every count."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value}")


def check_solvable(datum: BLDatum) -> None:
    """DatumError unless the datum can have a finite positive constant: it is
    not degenerate and its homogeneity defect is at most HOMOGENEITY_TOL in
    absolute value. The solver and gaussian_constant_search refuse by it."""
    if datum.degenerate:
        raise DatumError("degenerate datum: the factor maps do not jointly span; "
                         "both constants are +inf")
    if abs(datum.homogeneity_defect) > HOMOGENEITY_TOL:
        raise DatumError(
            f"homogeneity defect {datum.homogeneity_defect:.3e} exceeds {HOMOGENEITY_TOL:.0e}; "
            "the constant is degenerate (0 or +inf) unless sum c_i n_i = n"
        )


def is_frame(datum: BLDatum) -> bool:
    """True when each non-zero B_i has orthonormal rows and the weighted sum
    of B_i^T B_i is the identity. Zero maps are ignored."""
    if not datum.active:
        return False
    total = np.zeros((datum.n, datum.n))
    for i in datum.active:
        f = datum.factors[i]
        gram = f.B @ f.B.T
        if np.abs(gram - np.eye(f.target_dim)).max() > RANK_TOL:
            return False
        total += f.c * (f.B.T @ f.B)
    return bool(np.abs(total - np.eye(datum.n)).max() <= RANK_TOL)


def direct_sum(a: BLDatum, b: BLDatum) -> BLDatum:
    """Block-diagonal combination on R^{n_a + n_b}; factors keep their weights."""
    n = a.n + b.n
    factors = []
    for f in a.factors:
        B = np.zeros((f.target_dim, n))
        B[:, : a.n] = f.B
        factors.append(LinearFactor(f.c, B))
    for f in b.factors:
        B = np.zeros((f.target_dim, n))
        B[:, a.n :] = f.B
        factors.append(LinearFactor(f.c, B))
    return BLDatum(n, tuple(factors))


# -- serialization ------------------------------------------------------------

def datum_to_dict(datum: BLDatum) -> dict:
    return {
        "n": datum.n,
        "factors": [{"c": f.c, "rows": f.B.tolist()} for f in datum.factors],
    }


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def datum_from_dict(doc: dict) -> BLDatum:
    """The datum of a parsed JSON document {n, factors: [{c, rows}]}. The
    document is outside input, so its JSON types are checked: an object with
    n and a list of factor objects, and JSON numbers (no bool, no string) for
    each c and row entry. Each refusal is a DatumError naming the field."""
    if not isinstance(doc, dict) or "n" not in doc or "factors" not in doc:
        raise DatumError("a datum document must be an object with fields n and factors")
    if not isinstance(doc["factors"], list):
        raise DatumError(f"factors must be a list, got {type(doc['factors']).__name__}")
    factors = []
    for i, f in enumerate(doc["factors"]):
        if not isinstance(f, dict) or "c" not in f or "rows" not in f:
            raise DatumError(f"factor {i} must be an object with fields c and rows")
        c, rows = f["c"], f["rows"]
        if not _is_number(c):
            raise DatumError(f"factor {i}: c must be a number, got {c!r}")
        if not (isinstance(rows, list) and all(isinstance(r, list) and all(map(_is_number, r)) for r in rows)
                and len({len(r) for r in rows}) <= 1):
            raise DatumError(f"factor {i}: rows must be a list of equal-length lists of numbers")
        try:
            factors.append(LinearFactor(float(c), np.asarray(rows, dtype=float)))
        except OverflowError as exc:  # an integer past the float range
            raise DatumError(f"factor {i}: {exc}") from exc
    return BLDatum(doc["n"], tuple(factors))


def load_datum(path) -> BLDatum:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatumError(f"{path}: not valid JSON: {exc}") from exc
    return datum_from_dict(doc)


def save_datum(datum: BLDatum, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(datum_to_dict(datum), fh, indent=2, sort_keys=True)
        fh.write("\n")


def datum_digest(datum: BLDatum) -> str:
    """Stable content hash, embedded in reports so results can be tied to inputs."""
    canonical = json.dumps(datum_to_dict(datum), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
