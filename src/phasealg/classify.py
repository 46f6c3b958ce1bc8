"""Killing form, inertia, classification and the pseudoorthogonal embedding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

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
    _affine_template,
    bracket,
    is_exact,
    rational_sqrt,
    structure_constants,
)
from .linalg import EPS, Inertia, inertia


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


@lru_cache(maxsize=None)
def _killing_polynomial():
    """K as integer quadratics in theta = (1, kappa, lambda^2, mu^2), and its
    static diagonal blocks.

    f = sum_i theta_i T_i over the affine template's integer tensors T_i,
    and K is quadratic in f: K = sum_{i <= j} theta_i theta_j K_ij with
    K_ii = K(T_i) and K_ij = K(T_i + T_j) - K(T_i) - K(T_j).  Returns
    {(a, b): ((i, j, coef), ...)} over the nonzero entries, and the index
    lists of the components those entries connect.
    """
    slots, entries = _affine_template()

    def form(*idx):
        table = {}
        for key, c, s in entries:
            i, coef = slots[s]
            if i in idx:
                table.setdefault(key, {})[c] = coef
        return killing_form(StructureTensor(DIM, table, True))

    square = [form(i) for i in range(4)]
    poly = {}
    for i, j in combinations_with_replacement(range(4), 2):
        K = square[i] if i == j else form(i, j)
        for a, b in product(range(DIM), repeat=2):
            v = K[a][b] if i == j else K[a][b] - square[i][a][b] - square[j][a][b]
            if v:
                poly.setdefault((a, b), []).append((i, j, int(v)))
    poly = {ab: tuple(terms) for ab, terms in poly.items()}
    pattern = [[(a, b) in poly for b in range(DIM)] for a in range(DIM)]
    return poly, tuple(tuple(c) for c in linalg._components(pattern))


def killing_det_inertia(params):
    """Exact det and inertia of the Killing form at exact parameters.

    With D the lcm of theta's denominators, A = D^2 K is an integer matrix
    read off the Killing polynomial (see _killing_polynomial) at the
    numerators D theta; det K = det A / D^30 and K has A's inertia.  One
    _charpoly pass per static block gives both.
    """
    theta = (1, params.kappa, params.lambda_sq, params.mu_sq)
    D = math.lcm(*(v.denominator for v in theta))
    n = [v.numerator * (D // v.denominator) for v in theta]
    poly, blocks = _killing_polynomial()
    A = {ab: sum(coef * n[i] * n[j] for i, j, coef in terms) for ab, terms in poly.items()}
    det, sig = linalg.det_inertia_blocks(
        [[A.get((a, b), 0) for b in block] for a in block] for block in blocks)
    return det / D ** (2 * DIM), sig


def semisimplicity_indicator(params):
    """lambda^2 mu^2 - kappa^2; nonzero exactly when the algebra is semisimple."""
    return params.lambda_sq * params.mu_sq - params.kappa * params.kappa


#: The float degeneracy band: det Q = lambda^2 mu^2 - kappa^2 counts as zero
#: when |det Q| <= 2^-DEGENERATE_BITS max(|lambda^2 mu^2|, kappa^2), i.e.
#: within 4 eps of the point's scale.  Rounding the products moves det Q by
#: about one eps of that scale, so outside the band the float Killing form
#: has the sign of the exact det Q.  Inside it, K's I-I entry
#: 8 (kappa^2 - lambda^2 mu^2) must stay under killing_inertia's eigenvalue
#: bound, which needs a band narrower than about 15 eps: at 1e-13 that check
#: fails near the surface.
DEGENERATE_BITS = 50


def _det_q_sign(params):
    """Sign of det Q = lambda^2 mu^2 - kappa^2: 0 on the degenerate surface,
    exactly in exact mode and in floats within the band DEGENERATE_BITS.

    Floats are dyadic rationals, so the test runs on integers and no
    product can overflow or underflow: scaling a point by a power of two
    never changes the answer.
    """
    kn, kd = params.kappa.as_integer_ratio()
    ln, ld = params.lambda_sq.as_integer_ratio()
    mn, md = params.mu_sq.as_integer_ratio()
    # lambda^2 mu^2 and kappa^2 over the common denominator ld md kd^2 > 0
    prod, kk = ln * mn * kd * kd, kn * kn * ld * md
    det_q = prod - kk
    if params.exact:
        zero = det_q == 0
    else:
        zero = abs(det_q) << DEGENERATE_BITS <= max(abs(prod), kk)
    return 0 if zero else (1 if det_q > 0 else -1)


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


def classify(params):
    """Pseudoorthogonal class of the algebra at the given parameters.

    Floats are degenerate within a relative band of the surface (see
    _det_q_sign), so the class does not depend on the point's scale.
    """
    det_sign = _det_q_sign(params)
    if det_sign == 0:
        return AlgebraClass("Degenerate", "det Q = 0 (lambda^2 mu^2 = kappa^2)")
    if det_sign < 0:
        return AlgebraClass("SO(2,4)")
    # det Q > 0: mu^2 and lambda^2 are nonzero with a common sign
    if params.mu_sq > 0:
        return AlgebraClass("SO(1,5)")
    return AlgebraClass("SO(3,3)")


#: Inertia (n_pos, n_neg) of Q = [[mu^2, kappa], [kappa, lambda^2]] by class
_Q_INERTIA = {"SO(2,4)": (1, 1), "SO(1,5)": (2, 0), "SO(3,3)": (0, 2)}


def killing_inertia(params, K):
    """Inertia of the float Killing form K at params, in closed form from
    the point's class.

    K = 8 (G_F + Q (x) g + (-det Q)) with G_F of inertia (3, 3, 0) and
    g = diag(1, -1, -1, -1), so K's inertia is (3, 3, 0) + inertia(Q) (x)
    (1, 3) + sign(-det Q).  On the surface Q has rank at most 1, and its
    nonzero eigenvalue carries the common sign of mu^2 and lambda^2.

    K's eigenvalues are a one-sided check: those resolved beyond
    15 eps max(max|w|, 8 max(|lambda^2 mu^2|, kappa^2)), which covers
    eigvalsh's error and the rounding of K's I-I entry
    8 (kappa^2 - lambda^2 mu^2), must not outnumber the closed form's
    positive or negative counts.
    """
    k, l2, m2 = params.kappa, params.lambda_sq, params.mu_sq
    cls = classify(params)
    if cls.degenerate:
        q_pos, q_neg = int(m2 > 0 or l2 > 0), int(m2 < 0 or l2 < 0)
    else:
        q_pos, q_neg = _Q_INERTIA[cls.tag]
    pos = 3 + q_pos + 3 * q_neg + (cls.tag == "SO(2,4)")
    neg = 3 + 3 * q_pos + q_neg + (cls.tag in ("SO(1,5)", "SO(3,3)"))
    w = linalg.finite_eigvalsh(K)  # ascending
    bound = 15 * EPS * max(-w[0], w[-1], 8 * max(abs(l2 * m2), k * k))
    if len(w) - w.searchsorted(bound, "right") > pos or w.searchsorted(-bound) > neg:
        raise InternalConsistencyError(
            "Killing eigenvalues %r contradict the inertia (%d, %d, %d) at kappa=%r, "
            "lambda2=%r, mu2=%r" % (w.tolist(), pos, neg, DIM - pos - neg, k, l2, m2))
    return Inertia(pos, neg, DIM - pos - neg)


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
    ``deviation`` is the self-check residual found at construction and
    ``algebra_class`` the class of the input point it was checked against.
    """

    six_metric: tuple
    basis_map: object  # 15x15 nested list of Fractions (exact) or floats
    s_matrix: object  # the 2x2 congruence transform of the (p, x) Gram
    params: ParameterSet
    exact: bool
    deviation: object = field(init=False, default=None)
    algebra_class: AlgebraClass = field(init=False, default=None)


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
        if not root:
            # det Q / mu^2 (or / lambda^2) underflowed: the point is semisimple
            # only below the smallest float
            raise UnsupportedDomainError(
                "embedding normaliser underflows floats at kappa=%r, lambda2=%r, mu2=%r"
                % (params.kappa, params.lambda_sq, params.mu_sq))
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


#: A float embedding's deviation from the canonical constants is at most
#: about this many times the relative rounding error of det Q (see
#: _det_q_rounding): the normaliser divides by det Q, so near the surface
#: the deviation grows like eps over |det Q| relative to the point's scale.
#: 40000 seeded points at magnitudes 1e-300..1e300, down to 1e-17 of the
#: surface, came within 6 times it.
EMBED_ROUNDING = 16


def _det_q_rounding(params):
    """Relative error of det Q = lambda^2 mu^2 - kappa^2 taken in floats at
    a semisimple point: one rounding of the products at the point's scale,
    or one subnormal step where the products underflow."""
    k, l2, m2 = (Fraction(v) for v in (params.kappa, params.lambda_sq, params.mu_sq))
    scale = max(abs(l2 * m2), k * k)
    return (scale * Fraction(EPS) + Fraction(math.ulp(0.0))) / abs(l2 * m2 - k * k)


def pseudo_orthogonal_embedding(params, tol=1e-9):
    """Basis change onto canonical so(eta) generators; semisimple points only.

    Verified at construction: the transformed structure constants must match
    the canonical ones entrywise (exactly in exact mode, else within tol).
    A float embedding that misses tol where the rounding of det Q (see
    EMBED_ROUNDING) could exceed it is refused as outside the float
    domain, not reported as a defect.
    """
    cls = classify(params)
    if cls.degenerate:
        raise InvalidInputError("embedding requires a semisimple point (det Q != 0)")
    point = params  # as given: the float fallback below replaces params
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
    emb.algebra_class = cls
    emb.deviation = dev = embedding_deviation(emb)
    limit = 0 if exact else tol
    if not (dev <= limit):
        if not exact and EMBED_ROUNDING * _det_q_rounding(point) > tol:
            raise UnsupportedDomainError(
                "the float embedding is too ill-conditioned at kappa=%s, lambda2=%s, mu2=%s "
                "for tol=%r (deviation %r)" % (point.kappa, point.lambda_sq, point.mu_sq, tol, dev))
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
