"""Small exact-rational and float helpers for symmetric 15x15 forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Inertia:
    """Sylvester inertia (n_pos, n_neg, n_zero) of a symmetric form."""

    n_pos: int
    n_neg: int
    n_zero: int

    def as_tuple(self):
        return (self.n_pos, self.n_neg, self.n_zero)


def det_exact(mat):
    """Determinant of a square matrix of Fractions (Gaussian elimination)."""
    n = len(mat)
    m = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det

def inertia_exact(mat):
    """Sylvester inertia by symmetric congruence with exact pivoting.

    No eigenvalues involved, so degenerate forms are handled exactly.
    """
    n = len(mat)
    m = [[Fraction(v) for v in row] for row in mat]

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
        inv = Fraction(1) / m[k][k]
        for r in range(k + 1, n):
            factor = m[r][k] * inv
            if factor == 0:
                continue
            for c in range(n):
                m[r][c] -= factor * m[k][c]
            for i in range(n):
                m[i][r] -= factor * m[i][k]
    pos = sum(1 for k in range(n) if m[k][k] > 0)
    neg = sum(1 for k in range(n) if m[k][k] < 0)
    return Inertia(pos, neg, n - pos - neg)


def inertia_float(mat, tol=1e-9):
    """Inertia via eigenvalues with tolerance-thresholded zeros."""
    w = np.linalg.eigvalsh(np.asarray(mat, dtype=float))
    pos = int(np.sum(w > tol))
    neg = int(np.sum(w < -tol))
    return Inertia(pos, neg, len(w) - pos - neg)


def inertia(mat, tol=1e-9):
    """Sylvester inertia: eigenvalues for an ndarray, exact congruence otherwise."""
    if isinstance(mat, np.ndarray):
        return inertia_float(mat, tol)
    return inertia_exact(mat)
