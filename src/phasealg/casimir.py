"""Invariant operators: the quadratic Casimir, the epsilon-contracted
cubic/quartic Casimirs, and the generalized wave-operator check."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .core import (
    F,
    F_PAIRS,
    ID,
    InvalidInputError,
    METRIC_DIAG,
    P,
    X,
    representation_residual,
    structure_constants,
)
from .classify import SO6_PAIRS, so6_index


def levi_civita6():
    """Rank-6 totally antisymmetric array with eps[0,1,2,3,4,5] = +1."""
    eps = np.zeros((6,) * 6, dtype=np.int8)
    for perm in permutations(range(6)):
        sign = 1
        for i, j in combinations(range(6), 2):
            if perm[i] > perm[j]:
                sign = -sign
        eps[perm] = sign
    return eps


@dataclass
class CasimirReport:
    """An assembled invariant operator and its centrality diagnostics."""

    matrix: np.ndarray
    centrality_residual: float
    scalar_value: complex = None  # present iff matrix ~ scalar * identity


def centrality_residual(C, rep):
    return max(
        float(np.max(np.abs(C @ m - m @ C))) for m in rep.mats.values()
    )


def _scalar_part(C, tol):
    dim = C.shape[0]
    c = complex(np.trace(C)) / dim
    if float(np.max(np.abs(C - c * np.identity(dim)))) <= tol:
        return c
    return None


def _report(C, rep, tol):
    return CasimirReport(C, centrality_residual(C, rep), _scalar_part(C, tol))


def _validate_rep(rep, params, tol):
    t = structure_constants(params)
    res = representation_residual(rep, t)
    if not (res <= max(tol, 1e-8)):
        raise InvalidInputError(
            "representation does not satisfy the bracket relations for these "
            "parameters (residual %g)" % res
        )


def quadratic_casimir_matrix(rep, params):
    """Matrix of the quadratic invariant in terms of F, p, x and I:

        (l2 m2 - k^2) sum_{i<j} F_ij F^ij + I^2
        + k (x_i p^i + p_i x^i) - m2 x_i x^i - l2 p_i p^i

    with all indices raised by the Minkowski metric.  Generators absent
    from the representation (restricted subalgebra reps) contribute zero.
    """
    k, l2, m2 = params.kappa, params.lambda_sq, params.mu_sq
    dim = next(iter(rep.mats.values())).shape[0]
    C = np.zeros((dim, dim), dtype=complex)

    def mat(idx):
        return rep.mats.get(idx)

    coef_ff = float(l2 * m2 - k * k)
    for i, j in F_PAIRS:
        m = mat(F(i, j))
        if m is not None and coef_ff != 0:
            C += coef_ff * METRIC_DIAG[i] * METRIC_DIAG[j] * (m @ m)
    mi = mat(ID)
    if mi is not None:
        C += mi @ mi
    for i in range(4):
        g = METRIC_DIAG[i]
        mp, mx = mat(P(i)), mat(X(i))
        if mp is not None and mx is not None and k != 0:
            C += float(k) * g * (mx @ mp + mp @ mx)
        if mx is not None and m2 != 0:
            C -= float(m2) * g * (mx @ mx)
        if mp is not None and l2 != 0:
            C -= float(l2) * g * (mp @ mp)
    return C


def casimir_k2(rep, params, tol=1e-9):
    """Quadratic Casimir evaluated in a representation, with centrality check."""
    _validate_rep(rep, params, tol)
    return _report(quadratic_casimir_matrix(rep, params), rep, tol)


def _embedded_generators(rep, emb):
    """J_AB matrices (SO6_PAIRS order) in the representation, via the embedding."""
    return [sum(float(v) * rep.mats[a] for a, v in enumerate(row) if v)
            for row in emb.basis_map]


def _pair_table():
    """The 90 signed terms of G_AB = eps_ABCDEF J^{CD} J^{EF}.

    Row AB (SO6_PAIRS order) holds the 6 ordered pairs (CD, EF) of pairs
    that split the complement of AB, with coefficient 4 eps_ABCDEF: each
    stands for the 4 orderings C<->D, E<->F of its indices.
    """
    eps = levi_civita6()
    cd, ef, coef = [], [], []
    for A, B in SO6_PAIRS:
        rest = [k for k in range(6) if k not in (A, B)]
        for C, D in combinations(rest, 2):
            E, Fi = (k for k in rest if k not in (C, D))
            cd.append(so6_index(C, D))
            ef.append(so6_index(E, Fi))
            coef.append(4.0 * eps[A, B, C, D, E, Fi])
    return np.array(cd), np.array(ef), np.array(coef)[:, None, None]


_PAIR_CD, _PAIR_EF, _PAIR_COEF = _pair_table()


def _contract(Js, eta):
    """(eta_A eta_B, J^{AB}, G_AB), each stacked in SO6_PAIRS order."""
    sign = np.array([eta[A] * eta[B] for A, B in SO6_PAIRS], dtype=float)[:, None, None]
    Ju = sign * np.array(Js)
    terms = _PAIR_COEF * (Ju[_PAIR_CD] @ Ju[_PAIR_EF])
    return sign, Ju, terms.reshape(len(SO6_PAIRS), -1, *Ju.shape[1:]).sum(axis=1)


def epsilon_pair_contraction(Js, eta):
    """G_AB = eps_ABCDEF J^{CD} J^{EF}, summed over all C, D, E, F.

    Each G_AB is the sum of the 6 signed products in its row of the pair
    table.  Swapping the two factors is an even permutation of eps, so the
    sum is already symmetric in them; no explicit symmetrisation is needed.
    Returns {(A, B): matrix} for A < B; the rest follow by antisymmetry.
    G_AB is a tensor operator, not an invariant: its components do not
    commute with the algebra.
    """
    return dict(zip(SO6_PAIRS, _contract(Js, eta)[2]))


def casimir_eps(rep, emb, kind, tol=1e-9):
    """The epsilon-contracted invariants on the embedded J_AB basis.

    kind="K1": eps_ABCDEF J^{AB} J^{CD} J^{EF} = 2 sum_{A<B} J^{AB} G_AB.
    kind="K3": G_AB G^{AB} = 2 sum_{A<B} eta_A eta_B G_AB G_AB.
    G comes from the pair table (see epsilon_pair_contraction).  Reordering
    the three factors of K1 permutes index pairs, an even permutation of
    eps, so K1 is already symmetric in them.
    """
    if kind not in ("K1", "K3"):
        raise InvalidInputError("kind must be 'K1' or 'K3'")
    sign, Ju, G = _contract(_embedded_generators(rep, emb), emb.six_metric)
    C = Ju @ G if kind == "K1" else sign * (G @ G)
    return _report(2.0 * C.sum(axis=0), rep, tol)


def kgf_check(rep, params, tol=1e-9):
    """Evaluate the generalized wave operator on a representation.

    Returns (eigenvalue, satisfied): eigenvalue is the scalar value of the
    operator when it is scalar (None otherwise); satisfied means every
    vector of the representation solves the generalized wave equation.
    """
    report = casimir_k2(rep, params, tol=tol)
    if report.scalar_value is not None:
        return report.scalar_value, abs(report.scalar_value) <= tol
    # non-scalar: the equation holds on the whole space iff the kernel is full
    rank = np.linalg.matrix_rank(report.matrix, tol=tol)
    return None, rank == 0
