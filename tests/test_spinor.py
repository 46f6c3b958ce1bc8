"""Tests for the gamma machinery and the uncertainty evaluator."""

import math

import numpy as np
import pytest

from phasealg import spinor
from phasealg.core import (
    F,
    InternalConsistencyError,
    InvalidInputError,
    P,
    representation_residual,
    structure_constants,
)
from phasealg.spinor import (
    GammaBasis,
    clifford_violation,
    gamma_basis,
    robertson,
    spin_up_state,
    spinor_momentum_rep,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


class TestGammaBasis:
    def test_clifford_relations_exact(self):
        assert clifford_violation(gamma_basis()) == 0

    def test_spacelike_self_anticommutator(self):
        gb = gamma_basis()
        g1 = gb.gamma[1]
        assert np.all(g1 @ g1 + g1 @ g1 == -2 * np.identity(4))

    def test_gamma5(self):
        gb = gamma_basis()
        assert np.all(gb.gamma5 @ gb.gamma5 == np.identity(4))
        for g in gb.gamma:
            assert np.all(gb.gamma5 @ g == -g @ gb.gamma5)

    def test_spin_bracket_closes(self):
        # [S_01, S_12] = i(g_11 S_02) = -i S_02
        gb = gamma_basis()
        s01, s12, s02 = gb.S[(0, 1)], gb.S[(1, 2)], gb.S[(0, 2)]
        comm = s01 @ s12 - s12 @ s01
        assert np.max(np.abs(comm + 1j * s02)) < 1e-15

    def test_s12_block_diagonal_half_spin(self):
        gb = gamma_basis()
        want = np.block(
            [[SIGMA3 / 2, np.zeros((2, 2))], [np.zeros((2, 2)), SIGMA3 / 2]]
        )
        assert np.max(np.abs(gb.S[(1, 2)] - want)) == 0
        eigs = sorted(np.linalg.eigvalsh(gb.S[(1, 2)]))
        assert eigs == pytest.approx([-0.5, -0.5, 0.5, 0.5])


class TestMomentumRep:
    def test_positive_branch_bracket(self):
        rep = spinor_momentum_rep(4.0)
        p1, p2 = rep.mats[P(1)], rep.mats[P(2)]
        comm = p1 @ p2 - p2 @ p1
        assert np.max(np.abs(comm - 4j * rep.mats[F(1, 2)])) < 1e-12

    def test_ads_branch_bracket(self):
        rep = spinor_momentum_rep(-4.0)
        p1, p2 = rep.mats[P(1)], rep.mats[P(2)]
        comm = p1 @ p2 - p2 @ p1
        assert np.max(np.abs(comm + 4j * rep.mats[F(1, 2)])) < 1e-12
        assert not rep.hermitian_momenta

    def test_unit_mu_momentum_matrix(self):
        rep = spinor_momentum_rep(1.0)
        want = 0.5 * np.block(
            [[-SIGMA1, np.zeros((2, 2))], [np.zeros((2, 2)), SIGMA1]]
        )
        assert np.max(np.abs(rep.mats[P(1)] - want)) == 0

    @pytest.mark.parametrize("mu_sq", [0.25, 1.0, 4.0, 157.0**2 * 1e-6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_all_restricted_brackets(self, mu_sq, sign):
        rep = spinor_momentum_rep(sign * mu_sq)
        t = structure_constants(rep.params)
        assert representation_residual(rep, t) <= 1e-12

    def test_spatial_momenta_hermitian_on_positive_branch(self):
        rep = spinor_momentum_rep(4.0)
        for i in (1, 2, 3):
            m = rep.mats[P(i)]
            assert np.max(np.abs(m - m.conj().T)) == 0
        # the timelike momentum is anti-Hermitian in this construction
        m0 = rep.mats[P(0)]
        assert np.max(np.abs(m0 + m0.conj().T)) == 0

    def test_zero_mu_rejected(self):
        with pytest.raises(InvalidInputError):
            spinor_momentum_rep(0.0)

    @pytest.mark.parametrize("mu_sq", [1.0, 1e100])
    def test_bracket_check_catches_wrong_gamma5(self, monkeypatch, mu_sq):
        # rho(p) scaled by 1.01 breaks [p, p] = mu^2 F by 2% at any scale
        def skewed():
            gb = gamma_basis()
            return GammaBasis(gb.gamma, 1.01 * gb.gamma5, gb.S)

        monkeypatch.setattr(spinor, "gamma_basis", skewed)
        with pytest.raises(InternalConsistencyError):
            spinor_momentum_rep(mu_sq)


class TestRobertson:
    def test_saturation_on_spin_up(self):
        rep = spinor_momentum_rep(4.0)
        r = robertson(rep, spin_up_state(), P(1), P(2))
        assert r.delta_A == pytest.approx(1.0, abs=1e-12)
        assert r.delta_B == pytest.approx(1.0, abs=1e-12)
        assert r.commutator_expectation == pytest.approx(2j, abs=1e-12)
        assert r.bound == pytest.approx(1.0, abs=1e-12)
        assert r.delta_A * r.delta_B == pytest.approx(r.bound, abs=1e-12)
        assert r.satisfied

    def test_self_commutator_trivial(self):
        rep = spinor_momentum_rep(4.0)
        r = robertson(rep, spin_up_state(), P(1), P(1))
        assert r.bound == 0
        assert r.satisfied

    def test_monte_carlo_states(self):
        rep = spinor_momentum_rep(4.0)
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            assert robertson(rep, psi, P(1), P(2)).satisfied

    def test_saturating_case_gives_half_mu(self):
        # with equal spreads each equals sqrt(bound) = |mu_s|/2
        rep = spinor_momentum_rep(4.0)
        r = robertson(rep, spin_up_state(), P(1), P(2))
        mu_abs = 2.0
        assert min(r.delta_A, r.delta_B) <= math.sqrt(r.delta_A * r.delta_B) + 1e-12
        assert r.delta_A == pytest.approx(mu_abs / 2, abs=1e-12)
        assert r.delta_B == pytest.approx(mu_abs / 2, abs=1e-12)

    def test_non_hermitian_rejected(self):
        rep = spinor_momentum_rep(-4.0)
        with pytest.raises(InvalidInputError):
            robertson(rep, spin_up_state(), P(1), P(2))
        rep_pos = spinor_momentum_rep(4.0)
        with pytest.raises(InvalidInputError):
            robertson(rep_pos, spin_up_state(), P(0), P(1))

    def test_unnormalized_state_rejected(self):
        rep = spinor_momentum_rep(4.0)
        with pytest.raises(InvalidInputError):
            robertson(rep, 2.0 * spin_up_state(), P(1), P(2))

    def test_nan_state_rejected(self):
        rep = spinor_momentum_rep(4.0)
        psi = spin_up_state()
        psi[1] = np.nan
        with pytest.raises(InvalidInputError):
            robertson(rep, psi, P(1), P(2))

    def test_nan_generator_rejected(self):
        rep = spinor_momentum_rep(4.0)
        rep.mats[P(1)] = rep.mats[P(1)] * np.nan
        with pytest.raises(InvalidInputError):
            robertson(rep, spin_up_state(), P(1), P(2))
