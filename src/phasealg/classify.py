"""Killing form, inertia, classification and the pseudoorthogonal embedding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from .core import (
    DIM,
    F,
    F_PAIRS,
    ID,
    InternalConsistencyError,
    InvalidInputError,
    P,
    ParameterSet,
    Representation,
    StructureTensor,
    UnsupportedDomainError,
    X,
    _TableBuilder,
    _add_so_brackets,
    bracket,
    is_exact,
    rational_sqrt,
    structure_constants,
)
from .linalg import inertia


def adjoint_representation(t):
    """Adjoint matrices (rho_a)^c_b = i f^c_{ab} as complex arrays."""
    mats = {a: np.zeros((t.dim, t.dim), dtype=complex) for a in range(t.dim)}
    for (a, b), row in t.table.items():
        for c, v in row.items():
            mats[a][c, b] = 1j * float(v)
    return Representation(dim=t.dim, mats=mats, params=t.params)


def killing_form(t):
    """Killing-Cartan form K_ab = sum_{c,d} f^c_{ad} f^d_{bc}.

    The sign is that of the real Lie algebra, so compact directions come
    out negative: rotations like F(1,2) have negative diagonal entries,
    boosts like F(0,1) positive ones.

    The entries f^d_{bc} are indexed once per call by (c, d), so each stored
    f^c_{ad} meets only the b it contracts with.  For each (a, b) the
    products are added in table order of (a, d) and c, as a scan over all b
    would add them, so the float form is bitwise reproducible.
    """
    n = t.dim
    zero = Fraction(0) if t.exact else 0.0
    K = [[zero] * n for _ in range(n)]
    by_cd = {}
    for (b, c), row in t.table.items():
        for d, v2 in row.items():
            by_cd.setdefault((c, d), []).append((b, v2))
    for (a, d), row in t.table.items():
        Ka = K[a]
        for c, v1 in row.items():
            for b, v2 in by_cd.get((c, d), ()):
                Ka[b] += v1 * v2
    if not t.exact:
        return np.array(K, dtype=float)
    return K


def killing_det(K):
    if isinstance(K, np.ndarray):
        return float(np.linalg.det(K))
    return linalg.det_exact(K)


def semisimplicity_indicator(params):
    """lambda^2 mu^2 - kappa^2; nonzero exactly when the algebra is semisimple."""
    return params.lambda_sq * params.mu_sq - params.kappa * params.kappa


@dataclass(frozen=True)
class AlgebraClass:
    tag: str  # "SO(2,4)" | "SO(1,5)" | "SO(3,3)" | "Degenerate"
    reason: str = None

    @property
    def degenerate(self):
        return self.tag == "Degenerate"

    @property
    def signature(self):
        """(p, q) of the preserved 6-metric, or None if degenerate."""
        return {"SO(2,4)": (2, 4), "SO(1,5)": (1, 5), "SO(3,3)": (3, 3)}.get(self.tag)

    def __str__(self):
        if self.degenerate:
            return "Degenerate(%s)" % (self.reason or "")
        return self.tag


def classify(params, tol=1e-9):
    """Pseudoorthogonal class of the algebra at the given parameters."""
    det_q = semisimplicity_indicator(params)
    zero = det_q == 0 if params.exact else abs(det_q) <= tol
    if zero:
        return AlgebraClass("Degenerate", "det Q = 0 (lambda^2 mu^2 = kappa^2)")
    if det_q < 0:
        return AlgebraClass("SO(2,4)")
    # det Q > 0: mu^2 and lambda^2 are nonzero with a common sign
    if params.mu_sq > 0:
        return AlgebraClass("SO(1,5)")
    return AlgebraClass("SO(3,3)")


# ---------------------------------------------------------------------------
# canonical so(eta) algebra on the J_AB basis (A < B over 0..5)

SO6_PAIRS = tuple((a, b) for a, b in combinations(range(6), 2))
_SO6_INDEX = {pair: k for k, pair in enumerate(SO6_PAIRS)}


def so6_index(a, b):
    return _SO6_INDEX[(a, b)]


def so_structure_constants(eta_diag):
    """Structure constants of so(eta) for a diagonal 6-metric.

    [J_AB, J_CD] = i(eta_BC J_AD - eta_AC J_BD + eta_AD J_BC - eta_BD J_AC)
    """
    tb = _TableBuilder()
    _add_so_brackets(tb, SO6_PAIRS, so6_index, eta_diag)
    return StructureTensor(len(SO6_PAIRS), tb.finish(), is_exact(*eta_diag))


@lru_cache(maxsize=None)
def canonical_inertia(p, q):
    """Killing inertia of the textbook so(p,q) algebra (p + q = 6)."""
    eta = (1,) * p + (-1,) * q
    K = killing_form(so_structure_constants(eta))
    return linalg.inertia_exact(K)


# ---------------------------------------------------------------------------
# explicit embedding into the canonical J_AB basis

@dataclass
class Embedding:
    """Change of basis onto the canonical so(eta) generators.

    ``basis_map`` rows give J_AB (in SO6_PAIRS order) as combinations of
    the 15 algebra generators; ``six_metric`` is the diagonal 6-metric.
    ``deviation`` is the self-check residual found at construction.
    """

    six_metric: tuple
    basis_map: object  # 15x15 nested list of Fractions (exact) or floats
    s_matrix: object  # the 2x2 congruence transform of the (p, x) Gram
    params: ParameterSet
    exact: bool
    deviation: object = field(init=False, default=None)


def _diagonalize_gram(params, exact):
    """Columns c4, c5 with c^T Q c = diag(sigma4, sigma5), sigma in {+1,-1}."""
    m2, k, l2 = params.mu_sq, params.kappa, params.lambda_sq
    det_q = semisimplicity_indicator(params)

    def norm_col(col, quad):
        # quad = col^T Q col before normalization
        sigma = 1 if quad > 0 else -1
        if exact:
            root = rational_sqrt(Fraction(abs(quad)))
            if root is None:
                return None
            return (Fraction(col[0]) / root, Fraction(col[1]) / root), sigma
        root = math.sqrt(abs(float(quad)))
        return (float(col[0]) / root, float(col[1]) / root), sigma

    def div(a, b):
        return Fraction(a) / Fraction(b) if exact else a / b

    if m2 != 0:
        pairs = [((1, 0), m2), ((div(-k, m2), 1), div(det_q, m2))]
    elif l2 != 0:
        pairs = [((0, 1), l2), ((1, div(-k, l2)), div(det_q, l2))]
    else:
        # mu^2 = lambda^2 = 0, kappa != 0: hyperbolic plane
        pairs = [((1, 1), 2 * k), ((1, -1), -2 * k)]
    cols, sigmas = [], []
    for col, quad in pairs:
        res = norm_col(col, quad)
        if res is None:
            return None
        cols.append(res[0])
        sigmas.append(res[1])
    return cols, sigmas


def pseudo_orthogonal_embedding(params, tol=1e-9):
    """Basis change onto canonical so(eta) generators; semisimple points only.

    Verified at construction: the transformed structure constants must match
    the canonical ones entrywise (exactly in exact mode, else within tol).
    """
    cls = classify(params, tol=tol)
    if cls.degenerate:
        raise InvalidInputError("embedding requires a semisimple point (det Q != 0)")
    exact = params.exact
    res = _diagonalize_gram(params, exact)
    if res is None:
        # rational normalizers unavailable; fall back to floats
        exact = False
        params_f = params.as_floats()
        res = _diagonalize_gram(params_f, False)
        params = params_f
    cols, sigmas = res
    (a4, b4), (a5, b5) = cols
    det_s = a4 * b5 - a5 * b4
    if not exact and not (det_s and math.isfinite(det_s)):
        # the normaliser overflowed: the columns collapse to 0 or inf
        raise UnsupportedDomainError(
            "embedding normaliser overflows floats at kappa=%r, lambda2=%r, mu2=%r"
            % (params.kappa, params.lambda_sq, params.mu_sq)
        )
    eps = tuple(-s for s in sigmas)
    six_metric = (1, -1, -1, -1) + eps

    zero = Fraction(0) if exact else 0.0
    basis_map = [[zero] * DIM for _ in range(DIM)]
    for r, (A, B) in enumerate(SO6_PAIRS):
        if B <= 3:
            basis_map[r][F(A, B)] = Fraction(1) if exact else 1.0
        elif A <= 3 and B == 4:
            basis_map[r][P(A)] = a4
            basis_map[r][X(A)] = b4
        elif A <= 3 and B == 5:
            basis_map[r][P(A)] = a5
            basis_map[r][X(A)] = b5
        else:  # (4, 5)
            basis_map[r][ID] = -det_s

    emb = Embedding(six_metric, basis_map, ((a4, a5), (b4, b5)), params, exact)
    emb.deviation = dev = embedding_deviation(emb)
    limit = 0 if exact else tol
    if not (dev <= limit):
        raise InternalConsistencyError(
            "embedding does not reproduce canonical constants (deviation %r)" % dev
        )
    sig = (sum(1 for e in six_metric if e > 0), sum(1 for e in six_metric if e < 0))
    if sig != cls.signature:
        raise InternalConsistencyError(
            "embedding signature %r disagrees with classification %r" % (sig, cls.signature)
        )
    return emb


def inverse_basis_map(emb):
    """Rows of the inverse basis map: generator a is sum_r inv[a][r] J_r.

    The basis map is the identity on F, S^T on each (p_i, x_i) pair and
    -det S on I, so with S = ((a4, a5), (b4, b5)) its inverse is, in closed
    form, p_i = (b5 J_i4 - b4 J_i5)/det S, x_i = (a4 J_i5 - a5 J_i4)/det S
    and I = -J_45/det S.
    """
    (a4, a5), (b4, b5) = emb.s_matrix
    det_s = a4 * b5 - a5 * b4
    inv = [None] * DIM
    for i, j in F_PAIRS:
        inv[F(i, j)] = {so6_index(i, j): 1}
    for i in range(4):
        j4, j5 = so6_index(i, 4), so6_index(i, 5)
        inv[P(i)] = {j4: b5 / det_s, j5: -b4 / det_s}
        inv[X(i)] = {j4: -a5 / det_s, j5: a4 / det_s}
    inv[ID] = {so6_index(4, 5): -1 / det_s}
    return inv


def transform_structure_constants(t, emb):
    """Structure constants in the embedding's basis J_r = sum_a B[r][a] T_a.

    [J_p, J_q]/i is the bracket of two basis-map rows, taken back to the J
    basis through the closed-form inverse; exact and float share this path.
    """
    rows, inv = emb.basis_map, inverse_basis_map(emb)
    tb = _TableBuilder()
    for p, q in combinations(range(DIM), 2):
        for a, v in enumerate(bracket(rows[p], rows[q], t)):
            if v:
                for r, w in inv[a].items():
                    tb.add(p, q, r, v * w)
    return StructureTensor(DIM, tb.finish(), t.exact)


def embedding_deviation(emb):
    """Max |transformed - canonical| structure constant for the embedding."""
    got = transform_structure_constants(structure_constants(emb.params), emb)
    canon = so_structure_constants(emb.six_metric)
    zero = Fraction(0) if emb.exact else 0.0
    worst = zero
    for key in got.table.keys() | canon.table.keys():
        row, ref = got.table.get(key, {}), canon.table.get(key, {})
        for c in row.keys() | ref.keys():
            dev = abs(row.get(c, zero) - ref.get(c, zero))
            if dev > worst:
                worst = dev
    return worst
