"""Small exact-rational and float helpers for symmetric 15x15 forms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .core import UnsupportedDomainError

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Inertia:
    """Sylvester inertia (n_pos, n_neg, n_zero) of a symmetric form."""

    n_pos: int
    n_neg: int
    n_zero: int

    def as_tuple(self):
        return (self.n_pos, self.n_neg, self.n_zero)


def _components(mat):
    """Index lists, sorted, of the connected components of the graph that
    joins i and j when mat[i][j] or mat[j][i] is nonzero."""
    n = len(mat)
    adj = [set() for _ in range(n)]
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                adj[i].add(j)
                adj[j].add(i)
    seen, comps = set(), []
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        for i in comp:
            new = adj[i] - seen
            seen |= new
            comp += new
        comp.sort()
        comps.append(comp)
    return comps


def _blocks(mat):
    """Diagonal blocks of mat, entries as given, one per component (see
    _components)."""
    return [[[mat[i][j] for j in c] for i in c] for c in _components(mat)]


def _charpoly(m):
    """(c, d) with m = a/d for an integer matrix a and an integer d > 0, and
    c[0..n] the integer coefficients of det(xI - a), lowest first.

    Faddeev-LeVerrier on Python ints: from M = I, for k = 1..n, M <- a M,
    c[n-k] = -tr(M)/k (an exact division), M <- M + c[n-k] I.
    """
    n = len(m)
    ratios = [[v.as_integer_ratio() for v in row] for row in m]
    d = math.lcm(*(q for row in ratios for _, q in row))
    a = [[p * (d // q) for p, q in row] for row in ratios]
    c = [0] * n + [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*M))
        M = [[sum(map(mul, row, col)) for col in cols] for row in a]
        c[n - k] = -sum(M[i][i] for i in range(n)) // k
        for i in range(n):
            M[i][i] += c[n - k]
    return c, d


def det_inertia_blocks(blocks):
    """Determinant and inertia of a block-diagonal matrix from one _charpoly
    pass per diagonal block; a symmetric permutation leaves both unchanged.

    Each block contributes (-1)^n c[0] / d^n to det.  A symmetric block has
    real eigenvalues only, so Descartes' rule of signs on its characteristic
    polynomial (d > 0 keeps every sign) is exact: n_pos is the number of
    sign changes among the nonzero coefficients and n_zero the index of the
    first nonzero one.  The inertia is meaningless for a non-symmetric block.
    """
    num = den = 1
    size = pos = zero = 0
    for block in blocks:
        c, d = _charpoly(block)
        n = len(block)
        size += n
        num *= (-1) ** n * c[0]
        den *= d ** n
        signs = [v > 0 for v in c if v]
        pos += sum(s != t for s, t in zip(signs, signs[1:]))
        zero += next(k for k, v in enumerate(c) if v)
    return Fraction(num, den), Inertia(pos, size - pos - zero, zero)


def det_inertia(mat):
    """Exact determinant and inertia of a symmetric matrix of ints,
    Fractions or floats, from one _charpoly pass per diagonal block."""
    return det_inertia_blocks(_blocks(mat))


def det_exact(mat):
    """Exact determinant of a square matrix of ints, Fractions or floats."""
    return det_inertia(mat)[0]


def inertia_exact(mat):
    """Exact Sylvester inertia of a symmetric form."""
    return det_inertia(mat)[1]


def finite_eigvalsh(mat):
    """Eigenvalues of a symmetric float form, ascending.

    A form with an inf or nan entry (a float overflow) is refused rather
    than read as all zeros: its inertia is undefined in float mode.
    """
    a = np.asarray(mat, dtype=float)
    w = np.linalg.eigvalsh(a) if np.isfinite(a).all() else None
    if w is None or not np.isfinite(w).all():
        raise UnsupportedDomainError("the form is not finite (float overflow); "
                                     "its inertia is undefined")
    return w


def inertia_float(mat, tol=None):
    """Inertia via eigenvalues (see finite_eigvalsh); those within tol of 0
    count as zero.

    The default tol is relative, n eps max|w| as in numpy's matrix_rank,
    so the answer does not change when the form is rescaled.
    """
    w = finite_eigvalsh(mat)
    if tol is None:
        tol = len(w) * EPS * np.abs(w).max(initial=0.0)
    pos = int(np.sum(w > tol))
    neg = int(np.sum(w < -tol))
    return Inertia(pos, neg, len(w) - pos - neg)


def inertia(mat, tol=None):
    """Sylvester inertia: eigenvalues for an ndarray (see inertia_float),
    exact otherwise."""
    if isinstance(mat, np.ndarray):
        return inertia_float(mat, tol)
    return inertia_exact(mat)
