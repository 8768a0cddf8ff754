"""Shared builders for the test suite. Everything is deterministic."""

from fractions import Fraction

import numpy as np
import pytest

from blgauss import (
    BLDatum,
    YoungExponents,
    beckner_constant,
    closed_form_A,
    datum_from_exponents,
    direct_sum,
    make_datum,
)
from blgauss._linalg import numerical_rank
from blgauss.quadform import check_tuple


def prekopa_leindler_datum() -> BLDatum:
    """Two identity maps on the line with weights 1/2: a frame datum."""
    return make_datum(1, [0.5, 0.5], [np.array([[1.0]]), np.array([[1.0]])])


def coordinate_datum(n: int, weights=None) -> BLDatum:
    """Coordinate projections with unit weights by default (Hadamard datum)."""
    if weights is None:
        weights = [1.0] * n
    maps = [np.eye(n)[i : i + 1] for i in range(n)]
    return make_datum(n, weights, maps)


def mercedes_frame_datum() -> BLDatum:
    """Three unit vectors at 120 degrees in the plane, weights 2/3."""
    maps = []
    for k in range(3):
        t = 2.0 * np.pi * k / 3.0
        maps.append(np.array([[np.cos(t), np.sin(t)]]))
    return make_datum(2, [2.0 / 3.0] * 3, maps)


def young_flagship() -> tuple[YoungExponents, BLDatum]:
    e = YoungExponents(4.0 / 3.0, 4.0 / 3.0, 2.0)
    return e, datum_from_exponents(e)


def random_datum(rng: np.random.Generator, homogeneous: bool = False) -> BLDatum:
    """Random non-degenerate datum with onto factor maps, n in {2, 3}."""
    while True:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        dims = [int(rng.integers(1, n + 1)) for _ in range(m)]
        maps = []
        for ni in dims:
            B = rng.standard_normal((ni, n))
            while numerical_rank(B) < ni:
                B = rng.standard_normal((ni, n))
            maps.append(B)
        if numerical_rank(np.vstack(maps)) < n:
            continue
        cs = rng.uniform(0.3, 2.0, size=m)
        if homogeneous:
            cs = cs * (n / float(np.dot(cs, dims)))
        return make_datum(n, cs, maps)


def _span(M: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the column span of M."""
    if M.shape[1] == 0:
        return M
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, : int((s > 1e-9 * s[0]).sum())]


def _complement(V: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the orthogonal complement of span(V)."""
    return np.linalg.svd(V)[0][:, V.shape[1]:] if V.shape[1] else np.eye(V.shape[0])


def dimension_condition_holds(datum: BLDatum) -> bool:
    """Whether dim V <= sum_i c_i dim(B_i V) for every proper non-zero V in
    the lattice that the kernels of the non-zero maps generate under sum and
    intersection. A homogeneous datum has a finite constant exactly when the
    condition holds for every subspace (Bennett-Carbery-Christ-Tao), and a
    subspace that breaks it, if any, lies in that lattice. dim(B_i V) is
    ranked against ||B_i||, so a V inside ker B_i counts 0."""
    factors = [f for f in datum.factors if f.B.any()]
    lattice = {}

    def add(V: np.ndarray) -> bool:
        key = (np.round(V @ V.T, 6) + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0
        new = key not in lattice
        lattice.setdefault(key, V)
        return new

    for f in factors:
        add(_complement(_span(f.B.T)))
    grew = True
    while grew:
        if len(lattice) > 256:
            raise RuntimeError("the kernel lattice did not close")
        grew = False
        for U in list(lattice.values()):
            for W in list(lattice.values()):
                total = _span(np.hstack([U, W]))
                meet = _complement(_span(np.hstack([_complement(U), _complement(W)])))
                grew = add(total) | add(meet) | grew
    for V in lattice.values():
        if 0 < V.shape[1] < datum.n:
            spanned = sum(f.c * numerical_rank(f.B @ V, np.linalg.norm(f.B, 2)) for f in factors)
            if V.shape[1] > spanned + 1e-9:
                return False
    return True


def random_spd_tuple(datum: BLDatum, rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for i in datum.active:
        d = datum.factors[i].target_dim
        G = rng.standard_normal((d, d))
        out.append(G @ G.T + 0.1 * np.eye(d))
    return out


def gaussian_ratio(kernel, datum: BLDatum, constant: float, tuple_) -> float:
    """One ratio of a sweep kernel (gaussian_verify._direct_ratios or
    _reverse_ratios) at one tuple, evaluated as a stack of one."""
    stacks = [M[None] for M in check_tuple(datum, tuple_)]
    return float(kernel(datum.groups, constant, stacks)[0])


def well_conditioned_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenvalues in [0.5, 2]: keeps finite-difference curvature error small."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(0.5, 2.0, size=n)
    return (Q * w) @ Q.T


# -- closed-form families under GL(n) ------------------------------------------------
#
# For M in GL(n), C(B M) = C(B) / |det M| (the constant's change of variables)
# and the optimal covariances map as A*(B M) = M^{-1} A*(B) M^{-T}.


def loomis_whitney_datum(n: int) -> BLDatum:
    """Projections onto the n coordinate hyperplanes, weights 1/(n-1): C = 1,
    attained by every diagonal A."""
    return make_datum(n, [1.0 / (n - 1)] * n, [np.delete(np.eye(n), i, axis=0) for i in range(n)])


def young_power(k: int) -> BLDatum:
    """k copies of the flagship Young datum summed: C = C_Y^k."""
    d = young_flagship()[1]
    for _ in range(k - 1):
        d = direct_sum(d, young_flagship()[1])
    return d


def gl_family(name: str) -> tuple[BLDatum, float, list[np.ndarray] | None]:
    """A datum with a known constant and the diagonal blocks of its optimal A,
    each det-normalized and free up to a positive scale (None: every A is
    optimal)."""
    e, _ = young_flagship()
    c_young, a_young = beckner_constant(e), closed_form_A(e)
    if name == "loomis-whitney-6+young^2":
        return (direct_sum(loomis_whitney_datum(6), young_power(2)), c_young**2,
                [np.eye(1)] * 6 + [a_young] * 2)
    if name.startswith("loomis-whitney-"):
        n = int(name.rsplit("-", 1)[1])
        return loomis_whitney_datum(n), 1.0, [np.eye(1)] * n
    if name == "holder":  # identity maps, weights summing to 1: C = 1 at every A
        return make_datum(3, [0.5, 0.3, 0.2], [np.eye(3)] * 3), 1.0, None
    if name.startswith("young^"):
        k = int(name[len("young^"):])
        return young_power(k), c_young**k, [a_young] * k
    raise KeyError(name)


GL_FAMILIES = ["loomis-whitney-3", "loomis-whitney-6", "loomis-whitney-12", "holder",
               "young^1", "young^2", "young^3", "loomis-whitney-6+young^2"]


def random_gl(n: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """U diag(s) V^T with random orthogonal U, V, s[0] = 1 and s[-1] = 1/cond,
    rounded to multiples of 2^-40: each row of a family's B_i M is then a sum
    of at most two rows of M, computed exactly."""
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = cond ** -np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
    return np.round((U * s) @ V.T * 2.0**40) / 2.0**40


def exact_abs_det(M: np.ndarray) -> float:
    """|det M| by Gaussian elimination in exact rationals, rounded once."""
    a = [[Fraction(x) for x in row] for row in M.tolist()]
    det = Fraction(1)
    for k in range(len(a)):
        p = next(i for i in range(k, len(a)) if a[i][k] != 0)
        a[k], a[p] = a[p], a[k]
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return float(abs(det))


def gl_map(datum: BLDatum, M: np.ndarray) -> BLDatum:
    """The datum with every map B_i replaced by B_i M."""
    return make_datum(datum.n, datum.weights, [f.B @ M for f in datum.factors])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
