"""Generator basis, deformation parameters and structure constants.

The algebra lives on 15 generators: six antisymmetric-tensor generators
F_ij (0 <= i < j <= 3), four momenta p_i, four coordinates x_i and one
scalar generator I.  All brackets are stored with the i factored out:

    [T_a, T_b] = i * sum_c f^c_{ab} T_c

so the structure constants f^c_{ab} are real (rational in exact mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

DIM = 15

#: diagonal Minkowski metric, index 0 timelike
METRIC_DIAG = (1, -1, -1, -1)

F_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_F_INDEX = {pair: k for k, pair in enumerate(F_PAIRS)}

ID = 14

GENERATOR_NAMES = (
    tuple("F%d%d" % p for p in F_PAIRS)
    + tuple("p%d" % i for i in range(4))
    + tuple("x%d" % i for i in range(4))
    + ("I",)
)


def F(i, j):
    """Basis index of F_ij; requires i < j."""
    return _F_INDEX[(i, j)]


def P(i):
    """Basis index of the momentum p_i."""
    return 6 + i


def X(i):
    """Basis index of the coordinate x_i."""
    return 10 + i


def metric(i, j):
    return METRIC_DIAG[i] if i == j else 0


class InvalidInputError(ValueError):
    """Bad arguments: non-finite numbers, mixed arithmetic modes, ..."""


class UnsupportedDomainError(ValueError):
    """Parameter region the toolkit deliberately refuses (e.g. H^2 <= 0)."""


class InternalConsistencyError(RuntimeError):
    """A self-check that must hold on a correct build has failed."""


def is_exact(*values):
    return all(isinstance(v, (int, Fraction)) for v in values)


def _check_finite(name, v):
    if isinstance(v, float) and not math.isfinite(v):
        raise InvalidInputError("%s must be finite, got %r" % (name, v))
    if not isinstance(v, (int, float, Fraction)):
        raise InvalidInputError("%s must be a real number, got %r" % (name, v))


def rational_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    q = Fraction(q)
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class ParameterSet:
    """Deformation constants (kappa, lambda^2, mu^2) in natural units.

    The squared entries may be negative (imaginary lambda or mu).
    """

    kappa: object
    lambda_sq: object
    mu_sq: object

    def __post_init__(self):
        _check_finite("kappa", self.kappa)
        _check_finite("lambda_sq", self.lambda_sq)
        _check_finite("mu_sq", self.mu_sq)

    @property
    def exact(self):
        return is_exact(self.kappa, self.lambda_sq, self.mu_sq)

    def as_floats(self):
        return ParameterSet(float(self.kappa), float(self.lambda_sq), float(self.mu_sq))


CANONICAL_PARAMS = ParameterSet(0, 0, 0)


@dataclass(frozen=True)
class UnitsParams:
    """Dimensional constants (f, M^2, L^2, H^2); f plays the role of hbar."""

    f: object
    M_sq: object
    L_sq: object
    H_sq: object


def convert_units(u):
    """Convert (f, M^2, L^2, H^2) to natural-units (kappa, lambda^2, mu^2).

    kappa = f/H with H the positive root of H^2; lambda^2 = f^2/M^2;
    mu^2 = f^2/L^2.  H^2 <= 0 is refused rather than guessed at.
    """
    for name, v in (("f", u.f), ("M_sq", u.M_sq), ("L_sq", u.L_sq), ("H_sq", u.H_sq)):
        _check_finite(name, v)
    if u.M_sq == 0 or u.L_sq == 0 or u.H_sq == 0:
        raise InvalidInputError("M_sq, L_sq and H_sq must be nonzero")
    if u.H_sq < 0:
        raise UnsupportedDomainError("H_sq <= 0 has no classification; refusing")
    if u.f == 0:
        raise InvalidInputError("f must be nonzero")
    if is_exact(u.f, u.M_sq, u.L_sq, u.H_sq):
        h = rational_sqrt(u.H_sq)
        if h is not None:
            return ParameterSet(
                Fraction(u.f) / h,
                Fraction(u.f) ** 2 / Fraction(u.M_sq),
                Fraction(u.f) ** 2 / Fraction(u.L_sq),
            )
    f = float(u.f)
    return ParameterSet(f / math.sqrt(u.H_sq), f * f / float(u.M_sq), f * f / float(u.L_sq))


class StructureTensor:
    """Sparse antisymmetric table of real structure constants.

    ``table[(a, b)]`` maps output index c to f^c_{ab}; both orientations
    of every nonzero pair are stored, so antisymmetry is explicit.
    """

    def __init__(self, dim, table, exact, params=None):
        self.dim = dim
        self.table = table
        self.exact = exact
        self.params = params

    def coeff(self, a, b, c):
        return self.table.get((a, b), {}).get(c, 0)

    def bracket_basis(self, a, b):
        """Coefficients of [T_a, T_b]/i as a sparse dict."""
        return dict(self.table.get((a, b), {}))

    def perturbed(self, a, b, c, delta):
        """Copy with f^c_{ab} shifted by delta (antisymmetric partner too)."""
        table = {k: dict(row) for k, row in self.table.items()}
        table.setdefault((a, b), {})
        table.setdefault((b, a), {})
        table[(a, b)][c] = table[(a, b)].get(c, 0) + delta
        table[(b, a)][c] = table[(b, a)].get(c, 0) - delta
        return StructureTensor(self.dim, table, self.exact and is_exact(delta))


class _TableBuilder:
    def __init__(self):
        self.table = {}

    def add(self, a, b, c, v):
        if v == 0 or a == b:
            return
        self.table.setdefault((a, b), {})
        self.table.setdefault((b, a), {})
        self.table[(a, b)][c] = self.table[(a, b)].get(c, 0) + v
        self.table[(b, a)][c] = self.table[(b, a)].get(c, 0) - v

    def finish(self):
        table = {}
        for key, row in self.table.items():
            row = {c: v for c, v in row.items() if v != 0}
            if row:
                table[key] = row
        return table


def _add_pair_term(tb, index, a, b, coef, m, n):
    # coef * J_mn with J_nm = -J_mn and J_mm = 0; index(m, n) numbers J_mn
    if m == n or coef == 0:
        return
    if m < n:
        tb.add(a, b, index(m, n), coef)
    else:
        tb.add(a, b, index(n, m), -coef)


def _add_so_brackets(tb, pairs, index, eta_diag):
    """Add [J_ab, J_cd] = i(eta_bc J_ad - eta_ac J_bd + eta_ad J_bc - eta_bd J_ac)
    for every two index pairs, for a diagonal metric eta_diag.

    Builds the Lorentz sector of the deformed algebra and canonical so(p,q).
    """

    def eta(m, n):
        return eta_diag[m] if m == n else 0

    for (a, b), (c, d) in combinations(pairs, 2):
        r, s = index(a, b), index(c, d)
        _add_pair_term(tb, index, r, s, eta(b, c), a, d)
        _add_pair_term(tb, index, r, s, -eta(a, c), b, d)
        _add_pair_term(tb, index, r, s, eta(a, d), b, c)
        _add_pair_term(tb, index, r, s, -eta(b, d), a, c)


def _build_table(k, l2, m2):
    """The bracket table at (kappa, lambda^2, mu^2), built term by term.

    Bracket table:
      [F_ij, F_kl] = i(g_jk F_il - g_ik F_jl + g_il F_jk - g_jl F_ik)
      [F_ij, p_k]  = i(g_jk p_i - g_ik p_j)      (same pattern for x_k)
      [F_ij, I]    = 0
      [p_i, p_j]   = i mu^2 F_ij
      [x_i, x_j]   = i lambda^2 F_ij
      [p_i, x_j]   = i(g_ij I + kappa F_ij)
      [p_i, I]     = i(mu^2 x_i - kappa p_i)
      [x_i, I]     = i(kappa x_i - lambda^2 p_i)
    """
    tb = _TableBuilder()

    # Lorentz sector
    _add_so_brackets(tb, F_PAIRS, F, METRIC_DIAG)

    # vector transformation of p and x under F
    for i, j in F_PAIRS:
        for kk in range(4):
            tb.add(F(i, j), P(kk), P(i), metric(j, kk))
            tb.add(F(i, j), P(kk), P(j), -metric(i, kk))
            tb.add(F(i, j), X(kk), X(i), metric(j, kk))
            tb.add(F(i, j), X(kk), X(j), -metric(i, kk))

    # deformed Heisenberg sector
    for i, j in combinations(range(4), 2):
        tb.add(P(i), P(j), F(i, j), m2)
        tb.add(X(i), X(j), F(i, j), l2)
    for i in range(4):
        for j in range(4):
            tb.add(P(i), X(j), ID, metric(i, j))
            _add_pair_term(tb, F, P(i), X(j), k, i, j)
    for i in range(4):
        tb.add(P(i), ID, X(i), m2)
        tb.add(P(i), ID, P(i), -k)
        tb.add(X(i), ID, X(i), k)
        tb.add(X(i), ID, P(i), -l2)
    return tb.finish()


@lru_cache(maxsize=None)
def _affine_template():
    """The table as slots (i, coef) and entries (key, c, slot): f^c_key is
    the single term coef * theta_i (the builder adds each entry once; the
    unpacking below fails otherwise), read from the builder at the origin
    and the unit points.  Entries follow the builder's order at (1, 1, 1),
    where none vanishes, so dropping zeros reproduces it at every point.
    """
    base, *units = (_build_table(*p) for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    slots, entries = [], []
    for key, row in _build_table(1, 1, 1).items():
        for c in row:
            b = base.get(key, {}).get(c, 0)
            coefs = [b] + [u.get(key, {}).get(c, 0) - b for u in units]
            (term,) = [(i, coef) for i, coef in enumerate(coefs) if coef]
            if term not in slots:
                slots.append(term)
            entries.append((key, c, slots.index(term)))
    return tuple(slots), tuple(entries)


def structure_constants(params):
    """Structure constants of the deformed algebra at the given parameters.

    The table (see _build_table) is affine in theta = (1, kappa, lambda^2,
    mu^2) and is evaluated from a template built once from the builder.
    Zero entries (0.0 and -0.0 too) and empty rows are dropped, as the
    builder drops them.
    """
    if not isinstance(params, ParameterSet):
        params = ParameterSet(*params)
    slots, entries = _affine_template()
    theta = (1, params.kappa, params.lambda_sq, params.mu_sq)
    vals = [coef * theta[i] for i, coef in slots]
    table = {}
    for key, c, s in entries:
        if vals[s]:
            table.setdefault(key, {})[c] = vals[s]
    return StructureTensor(DIM, table, params.exact, params=params)


def basis_element(index, dim=DIM, exact=False):
    """Coefficient vector of a single basis generator."""
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    out = [zero] * dim
    out[index] = one
    return out


def bracket(a, b, t):
    """Coefficient vector of [A, B]/i for elements a, b over tensor t."""
    if len(a) != t.dim or len(b) != t.dim:
        raise InvalidInputError("element length does not match tensor dimension")
    if t.exact and not (is_exact(*a) and is_exact(*b)):
        raise InvalidInputError("float coefficients mixed with an exact tensor")
    zero = Fraction(0) if t.exact else 0.0
    out = [zero] * t.dim
    for (ga, gb), row in t.table.items():
        ca = a[ga]
        if not ca:
            continue
        cb = b[gb]
        if not cb:
            continue
        w = ca * cb
        for c, v in row.items():
            out[c] += w * v
    return out


def jacobi_residual(t):
    """Max |cyclic Jacobi sum| over all generator triples; 0 for a Lie algebra."""
    best = 0
    table = t.table
    acc = {}
    for a, b, c in combinations(range(t.dim), 3):
        acc.clear()
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            row1 = table.get((u, v))
            if not row1:
                continue
            for e, f1 in row1.items():
                row2 = table.get((e, w))
                if not row2:
                    continue
                for d, f2 in row2.items():
                    acc[d] = acc.get(d, 0) + f1 * f2
        for val in acc.values():
            m = -val if val < 0 else val
            if m > best:
                best = m
    return best


def antisymmetry_violation(t):
    """Max |f^c_{ab} + f^c_{ba}| over all stored entries."""
    worst = 0
    for (a, b), row in t.table.items():
        for c, v in row.items():
            m = abs(v + t.coeff(b, a, c))
            if m > worst:
                worst = m
    return worst


@dataclass
class Representation:
    """Matrices rho(T_a) realizing (a subset of) the bracket relations."""

    dim: int
    mats: dict
    params: ParameterSet = None
    hermitian_momenta: bool = None

    def matrix(self, index):
        return self.mats[index]


def representation_residual(rep, t):
    """Max deviation of [rho_a, rho_b] - i sum f^c_{ab} rho_c over present pairs."""
    idxs = sorted(rep.mats)
    devs = [0.0]
    for a, b in combinations(idxs, 2):
        ma, mb = rep.mats[a], rep.mats[b]
        comm = ma @ mb - mb @ ma
        for c, v in t.table.get((a, b), {}).items():
            if c not in rep.mats:
                if v != 0:
                    return math.inf
                continue
            comm = comm - 1j * float(v) * rep.mats[c]
        devs.append(np.max(np.abs(comm)))
    return float(np.max(devs))  # a nan deviation (overflow) stays nan here
