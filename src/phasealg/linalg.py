"""Small exact-rational and float helpers for symmetric 15x15 forms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    """Diagonal blocks of mat as Fractions, one per connected component of
    the graph that joins i and j when mat[i][j] or mat[j][i] is nonzero."""
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
        blocks.append([[Fraction(mat[i][j]) for j in block] for i in block])
    return blocks


def _det(m):
    """Determinant by Gaussian elimination; m (Fractions) is overwritten."""
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] / pivot
                for c in range(col + 1, n):
                    m[r][c] -= factor * m[col][c]
    return det


def _inertia(m):
    """(n_pos, n_neg) by symmetric congruence with exact pivoting; m is
    overwritten."""
    n = len(m)

    def swap(a, b):
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    for k in range(n):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][r] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                # all remaining diagonal entries vanish; grab an off-diagonal
                # one and symmetrically add its column to create a pivot
                hit = None
                for r in range(k, n):
                    for c in range(r + 1, n):
                        if m[r][c] != 0:
                            hit = (r, c)
                            break
                    if hit:
                        break
                if hit is None:
                    break  # remaining block is identically zero
                r, c = hit
                for j in range(n):
                    m[r][j] += m[c][j]
                for i in range(n):
                    m[i][r] += m[i][c]
                if r != k:
                    swap(k, r)
        if m[k][k] == 0:
            continue
        for r in range(k + 1, n):
            if not m[r][k]:
                continue
            factor = m[r][k] / m[k][k]
            for c in range(n):
                m[r][c] -= factor * m[k][c]
            for i in range(n):
                m[i][r] -= factor * m[i][k]
    return (sum(1 for k in range(n) if m[k][k] > 0),
            sum(1 for k in range(n) if m[k][k] < 0))


def det_exact(mat):
    """Determinant of a square matrix of Fractions.

    Each diagonal block (see _blocks) is eliminated on its own; det is the
    product over the blocks, since a symmetric permutation of rows and
    columns leaves it unchanged (det P^2 = 1).
    """
    return math.prod(map(_det, _blocks(mat)), start=Fraction(1))


def inertia_exact(mat):
    """Sylvester inertia by symmetric congruence with exact pivoting.

    No eigenvalues involved, so degenerate forms are handled exactly.  Each
    diagonal block (see _blocks) is reduced on its own and the counts are
    summed; by Sylvester's law a symmetric permutation changes nothing.
    """
    n = len(mat)
    pos = neg = 0
    for block in _blocks(mat):
        p, q = _inertia(block)
        pos, neg = pos + p, neg + q
    return Inertia(pos, neg, n - pos - neg)


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
    """Sylvester inertia: eigenvalues for an ndarray, exact congruence otherwise."""
    if isinstance(mat, np.ndarray):
        return inertia_float(mat, tol)
    return inertia_exact(mat)
