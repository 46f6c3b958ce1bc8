"""Dirac matrices, the 4-dimensional momentum representation of the
kappa = lambda = 0 subalgebra, and the Robertson uncertainty evaluator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    F,
    F_PAIRS,
    InternalConsistencyError,
    InvalidInputError,
    METRIC_DIAG,
    P,
    ParameterSet,
    Representation,
    representation_residual,
    structure_constants,
)

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


@dataclass
class GammaBasis:
    """Dirac-basis gamma matrices, gamma5 and the spin generators S_ij."""

    gamma: tuple  # gamma[0..3]
    gamma5: np.ndarray
    S: dict  # (i, j) with i < j -> (i/4)[gamma_i, gamma_j]

    def spin(self, i, j):
        if i < j:
            return self.S[(i, j)]
        return -self.S[(j, i)]


def gamma_basis():
    """Dirac-basis gammas; Clifford relations hold exactly."""
    zero = np.zeros((2, 2), dtype=complex)
    ident = np.identity(2, dtype=complex)
    g0 = _block(ident, zero, zero, -ident)
    gk = tuple(_block(zero, s, -s, zero) for s in _SIGMA)
    gamma = (g0,) + gk
    gamma5 = 1j * g0 @ gk[0] @ gk[1] @ gk[2]
    S = {}
    for i, j in F_PAIRS:
        S[(i, j)] = 0.25j * (gamma[i] @ gamma[j] - gamma[j] @ gamma[i])
    return GammaBasis(gamma, gamma5, S)


def clifford_violation(gb):
    """Max deviation of {gamma_i, gamma_j} - 2 g_ij from zero."""
    worst = 0.0
    ident = np.identity(4)
    for i in range(4):
        for j in range(4):
            anti = gb.gamma[i] @ gb.gamma[j] + gb.gamma[j] @ gb.gamma[i]
            g = 2 * (METRIC_DIAG[i] if i == j else 0)
            worst = max(worst, float(np.max(np.abs(anti - g * ident))))
    return worst


def spinor_momentum_rep(mu_sq, tol=1e-12):
    """4-dimensional representation of the {F_ij, p_i} subalgebra.

    rho(F_ij) = S_ij; rho(p_i) = (sqrt|mu^2|/2) gamma5 gamma_i for mu^2 > 0
    and (sqrt|mu^2|/2) gamma_i for mu^2 < 0 (the AdS-type branch, where the
    momenta cannot all be Hermitian in a finite-dimensional representation).
    The bracket relations are verified at construction.
    """
    if mu_sq == 0:
        raise InvalidInputError("mu_sq must be nonzero")
    gb = gamma_basis()
    scale = math.sqrt(abs(float(mu_sq))) / 2.0
    hermitian = mu_sq > 0
    mats = {}
    for i, j in F_PAIRS:
        mats[F(i, j)] = gb.S[(i, j)]
    for i in range(4):
        if hermitian:
            mats[P(i)] = scale * (gb.gamma5 @ gb.gamma[i])
        else:
            mats[P(i)] = scale * gb.gamma[i]
    params = ParameterSet(0, 0, mu_sq)
    rep = Representation(dim=4, mats=mats, params=params, hermitian_momenta=hermitian)
    res = representation_residual(rep, structure_constants(params))
    if not (res <= tol):
        raise InternalConsistencyError(
            "spinor momentum representation failed its bracket check (%g)" % res
        )
    return rep


@dataclass
class UncertaintyReport:
    mean_A: float
    mean_B: float
    delta_A: float
    delta_B: float
    commutator_expectation: complex
    bound: float
    satisfied: bool


def _expectation(psi, op):
    return complex(np.conj(psi) @ (op @ psi))


def robertson(rep, psi, a, b, tol=1e-9):
    """Robertson uncertainty data for Hermitian rho(a), rho(b) on a unit state.

    delta_A * delta_B >= |<[A, B]>|/2 is a theorem for Hermitian operators;
    a violation beyond tolerance is reported as satisfied=False and marks an
    internal inconsistency.
    """
    psi = np.asarray(psi, dtype=complex)
    norm = float(np.linalg.norm(psi))
    if not (abs(norm - 1.0) <= tol):
        raise InvalidInputError("state must be normalized (norm %g)" % norm)
    ops = []
    for idx in (a, b):
        if idx not in rep.mats:
            raise InvalidInputError("generator %r not realized in this representation" % idx)
        op = rep.mats[idx]
        if not (float(np.max(np.abs(op - op.conj().T))) <= tol):
            raise InvalidInputError(
                "generator %r is not Hermitian in this representation; the "
                "Robertson relation does not apply" % idx
            )
        ops.append(op)
    A, B = ops
    mean_a = _expectation(psi, A).real
    mean_b = _expectation(psi, B).real
    var_a = max(_expectation(psi, A @ A).real - mean_a**2, 0.0)
    var_b = max(_expectation(psi, B @ B).real - mean_b**2, 0.0)
    delta_a, delta_b = math.sqrt(var_a), math.sqrt(var_b)
    comm = _expectation(psi, A @ B - B @ A)
    bound = abs(comm) / 2.0
    satisfied = delta_a * delta_b >= bound - tol
    return UncertaintyReport(mean_a, mean_b, delta_a, delta_b, comm, bound, satisfied)


def spin_up_state(gb=None):
    """Unit eigenvector of S_12 with eigenvalue +1/2 (spin up along axis 3)."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    return psi
