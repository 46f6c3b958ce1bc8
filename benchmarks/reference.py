"""A fixed reference computation that measures the machine's current speed.

On a shared machine the speed of one core drifts by tens of percent over
minutes, and every CPU-bound program slows and speeds up with it.  The
benchmark times this computation between blocks of requests and reports
timings scaled to NOMINAL_S, the reference's duration at the nominal speed:

    scaled time = wall time * NOMINAL_S / reference time

It mixes the kinds of work phasealg does (integer loops, Fraction
elimination, sparse dict products, a small einsum and eigvalsh) and does
not import phasealg, so a change to the program cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.1


def _integers():
    x = 0
    for i in range(250_000):
        x += i * i
    return x


def _fractions():
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 7) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return m[n - 1][n - 1]


def _sparse():
    t = {(a, b): {c: 0.5 * (a - b + c) for c in range(6)}
         for a in range(15) for b in range(15) if a != b}
    K = [[0.0] * 15 for _ in range(15)]
    for (a, d), row in t.items():
        for c, v in row.items():
            for b in range(15):
                v2 = t.get((b, c), {}).get(d)
                if v2 is not None:
                    K[a][b] += v * v2
    return K


_RNG = np.random.default_rng(0)
_B = _RNG.standard_normal((9, 9))
_D = _RNG.standard_normal((9, 9, 9))
_S = _RNG.standard_normal((15, 15))
_S = _S + _S.T


def _numpy():
    out = np.einsum("pa,qb,cab,cr->rpq", _B, _B, _D, _B)
    for _ in range(20):
        np.linalg.eigvalsh(_S)
    return out


# repetitions give each kind of work about a quarter of the time
_PASS = ((_integers, 1), (_fractions, 12), (_sparse, 4), (_numpy, 6))


def seconds():
    """Wall time of one pass over the reference computation."""
    t0 = time.perf_counter()
    for kernel, reps in _PASS:
        for _ in range(reps):
            kernel()
    return time.perf_counter() - t0
