"""Small exact-rational and float helpers for symmetric 15x15 forms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .core import UnsupportedDomainError


@dataclass(frozen=True)
class Inertia:
    """Sylvester inertia (n_pos, n_neg, n_zero) of a symmetric form."""

    n_pos: int
    n_neg: int
    n_zero: int

    def as_tuple(self):
        return (self.n_pos, self.n_neg, self.n_zero)


def _blocks(mat):
    """Diagonal blocks of mat, entries as given, one per connected component
    of the graph that joins i and j when mat[i][j] or mat[j][i] is nonzero."""
    n = len(mat)
    adj = [set() for _ in range(n)]
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                adj[i].add(j)
                adj[j].add(i)
    seen, blocks = set(), []
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        block = [s]
        for i in block:
            new = adj[i] - seen
            seen |= new
            block += new
        block.sort()
        blocks.append([[mat[i][j] for j in block] for i in block])
    return blocks


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


def det_exact(mat):
    """Exact determinant of a square matrix of ints, Fractions or floats.

    Each diagonal block (see _blocks) contributes (-1)^n c[0] / d^n (see
    _charpoly); a symmetric permutation leaves det unchanged (det P^2 = 1).
    """
    num = den = 1
    for block in _blocks(mat):
        c, d = _charpoly(block)
        num *= (-1) ** len(block) * c[0]
        den *= d ** len(block)
    return Fraction(num, den)


def inertia_exact(mat):
    """Exact Sylvester inertia of a symmetric form, summed over its diagonal
    blocks (see _blocks), which a symmetric permutation leaves unchanged.

    A symmetric block has real eigenvalues only, so Descartes' rule of signs
    on its characteristic polynomial (see _charpoly; d > 0 keeps every sign)
    is exact: n_pos is the number of sign changes among the nonzero
    coefficients and n_zero the index of the first nonzero one.
    """
    pos = zero = 0
    for block in _blocks(mat):
        c, _ = _charpoly(block)
        signs = [v > 0 for v in c if v]
        pos += sum(s != t for s, t in zip(signs, signs[1:]))
        zero += next(k for k, v in enumerate(c) if v)
    return Inertia(pos, len(mat) - pos - zero, zero)


def inertia_float(mat, tol=1e-9):
    """Inertia via eigenvalues with tolerance-thresholded zeros.

    A form with an inf or nan entry (a float overflow) has no inertia in
    float mode: it is refused rather than read as all zeros.
    """
    a = np.asarray(mat, dtype=float)
    w = np.linalg.eigvalsh(a) if np.isfinite(a).all() else None
    if w is None or not np.isfinite(w).all():
        raise UnsupportedDomainError("the form is not finite (float overflow); "
                                     "its inertia is undefined")
    pos = int(np.sum(w > tol))
    neg = int(np.sum(w < -tol))
    return Inertia(pos, neg, len(w) - pos - neg)


def inertia(mat, tol=1e-9):
    """Sylvester inertia: eigenvalues for an ndarray, exact otherwise."""
    if isinstance(mat, np.ndarray):
        return inertia_float(mat, tol)
    return inertia_exact(mat)
