"""Tests for the invariant operators and the generalized wave-operator check."""

import numpy as np
import pytest

from phasealg.casimir import (
    _embedded_generators,
    casimir_eps,
    casimir_k2,
    centrality_residual,
    epsilon_pair_contraction,
    kgf_check,
    levi_civita6,
    quadratic_casimir_matrix,
)
from phasealg.classify import SO6_PAIRS, adjoint_representation, pseudo_orthogonal_embedding
from phasealg.core import (
    F,
    F_PAIRS,
    ID,
    InvalidInputError,
    METRIC_DIAG,
    P,
    ParameterSet,
    Representation,
    UnitsParams,
    X,
    convert_units,
    structure_constants,
)
from phasealg.spinor import spinor_momentum_rep


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def adjoint_at(*vals):
    params = ParameterSet(*[float(v) for v in vals])
    return adjoint_representation(structure_constants(params)), params


class TestLeviCivita:
    def test_normalization_and_count(self):
        eps = levi_civita6()
        assert eps[0, 1, 2, 3, 4, 5] == 1
        assert int(np.sum(eps != 0)) == 720
        assert int(np.sum(eps == 1)) == 360

    def test_transposition_antisymmetry(self):
        eps = levi_civita6()
        assert np.all(eps.swapaxes(0, 1) == -eps)
        assert np.all(eps.swapaxes(2, 5) == -eps)


class TestQuadraticCasimir:
    def test_canonical_point_is_zero(self):
        rep, params = adjoint_at(0, 0, 0)
        report = casimir_k2(rep, params)
        assert report.scalar_value == 0
        assert np.all(report.matrix == 0)

    def test_semisimple_point_scalar(self):
        rep, params = adjoint_at(0, 1, 1)
        report = casimir_k2(rep, params)
        assert report.centrality_residual < 1e-9
        assert report.scalar_value is not None
        assert abs(report.scalar_value.imag) < 1e-9

    def test_degenerate_point_still_central(self):
        rep, params = adjoint_at(1, 1, 1)
        report = casimir_k2(rep, params)
        assert report.centrality_residual < 1e-9

    def test_rep_params_mismatch_rejected(self):
        rep, _ = adjoint_at(0, 1, 1)
        with pytest.raises(InvalidInputError):
            casimir_k2(rep, ParameterSet(2.0, 3.0, 4.0))

    def test_units_form_matches_natural_units_form(self):
        """Assembling the operator from (f, M^2, L^2, H^2) coefficients gives
        the same matrix as the natural-units coefficients after conversion."""
        u = UnitsParams(1.0, 4.0, 1.0, 9.0)
        params = convert_units(u)
        rep = adjoint_representation(structure_constants(params))
        got = quadratic_casimir_matrix(rep, params)
        dim = rep.mats[0].shape[0]
        want = np.zeros((dim, dim), dtype=complex)
        coef_ff = 1.0 / (u.M_sq * u.L_sq) - 1.0 / u.H_sq
        inv_h = 1.0 / np.sqrt(u.H_sq)
        for i, j in F_PAIRS:
            m = rep.mats[F(i, j)]
            want += coef_ff * METRIC_DIAG[i] * METRIC_DIAG[j] * (m @ m)
        want += rep.mats[ID] @ rep.mats[ID]
        for i in range(4):
            g = METRIC_DIAG[i]
            mp, mx = rep.mats[P(i)], rep.mats[X(i)]
            want += inv_h * g * (mx @ mp + mp @ mx)
            want -= g * (mx @ mx) / u.L_sq
            want -= g * (mp @ mp) / u.M_sq
        assert np.max(np.abs(got - want)) < 1e-12

    def test_symmetrized_ordering_identical(self):
        """Reversing the factor order in every quadratic term changes nothing."""
        rep, params = adjoint_at(0.7, -1.3, 2.0)
        got = quadratic_casimir_matrix(rep, params)
        k, l2, m2 = params.kappa, params.lambda_sq, params.mu_sq
        dim = rep.mats[0].shape[0]
        want = np.zeros((dim, dim), dtype=complex)
        coef_ff = l2 * m2 - k * k
        for i, j in F_PAIRS:
            m = rep.mats[F(i, j)]
            g = METRIC_DIAG[i] * METRIC_DIAG[j]
            want += coef_ff * g * 0.5 * (m @ m + m @ m)
        want += rep.mats[ID] @ rep.mats[ID]
        for i in range(4):
            g = METRIC_DIAG[i]
            mp, mx = rep.mats[P(i)], rep.mats[X(i)]
            want += k * g * (mp @ mx + mx @ mp)  # reversed pair order
            want -= m2 * g * (mx @ mx)
            want -= l2 * g * (mp @ mp)
        assert np.max(np.abs(got - want)) < 1e-12


class TestEpsilonCasimirs:
    def test_k1_central_on_so15_point(self):
        rep, params = adjoint_at(0, 1, 1)
        emb = pseudo_orthogonal_embedding(params)
        report = casimir_eps(rep, emb, "K1")
        assert report.centrality_residual < 1e-9

    def test_k3_central_scalar_on_so33_point(self):
        rep, params = adjoint_at(0, -1, -1)
        emb = pseudo_orthogonal_embedding(params)
        report = casimir_eps(rep, emb, "K3")
        assert report.centrality_residual < 1e-9
        assert report.scalar_value is not None

    def test_broken_contraction_detected(self):
        """A partial contraction is a tensor operator, not an invariant:
        the centrality residual must flag it."""
        rep, params = adjoint_at(0, 1, 1)
        emb = pseudo_orthogonal_embedding(params)
        Js = _embedded_generators(rep, emb)
        G = epsilon_pair_contraction(Js, emb.six_metric)
        assert centrality_residual(G[(0, 1)], rep) > 1e-6

    def test_degenerate_params_rejected(self):
        rep, params = adjoint_at(1, 1, 1)
        with pytest.raises(InvalidInputError):
            pseudo_orthogonal_embedding(params)

    def test_bad_kind_rejected(self):
        rep, params = adjoint_at(0, 1, 1)
        emb = pseudo_orthogonal_embedding(params)
        with pytest.raises(InvalidInputError):
            casimir_eps(rep, emb, "K2")


class TestEpsilonCasimirsAgainstLeviCivita:
    """Entrywise comparison with a dense contraction over levi_civita6().

    K1 vanishes identically on the adjoint, so 15 seeded random complex
    4x4 matrices (not a representation) stand in for the generators: they
    let a wrong sign or factor in the pair table show."""

    def setup_method(self):
        rng = np.random.default_rng(12)
        mats = {a: rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for a in range(15)}
        self.rep = Representation(dim=4, mats=mats)
        self.emb = pseudo_orthogonal_embedding(ParameterSet(0.5, 1.25, 1.0))
        self.eta = self.emb.six_metric
        self.Js = _embedded_generators(self.rep, self.emb)
        # J^{AB} for all A, B, antisymmetric
        self.T = np.zeros((6, 6, 4, 4), dtype=complex)
        for (A, B), J in zip(SO6_PAIRS, self.Js):
            self.T[A, B] = self.eta[A] * self.eta[B] * J
            self.T[B, A] = -self.T[A, B]
        self.G = np.einsum("abcdef,cdij,efjk->abik", levi_civita6(), self.T, self.T)

    def test_pair_contraction(self):
        G = epsilon_pair_contraction(self.Js, self.eta)
        assert set(G) == set(SO6_PAIRS)
        for A, B in SO6_PAIRS:
            assert_close(G[(A, B)], self.G[A, B])

    def test_k1(self):
        want = np.einsum("abij,abjk->ik", self.T, self.G)
        assert np.max(np.abs(want)) > 1
        assert_close(casimir_eps(self.rep, self.emb, "K1").matrix, want)

    def test_k3(self):
        eta = np.array(self.eta, dtype=float)
        want = np.einsum("a,b,abij,abjk->ik", eta, eta, self.G, self.G)
        assert_close(casimir_eps(self.rep, self.emb, "K3").matrix, want)


class TestKgfCheck:
    def test_canonical_point_satisfied(self):
        rep, params = adjoint_at(0, 0, 0)
        eig, ok = kgf_check(rep, params)
        assert eig == 0
        assert ok

    def test_matches_quadratic_casimir_scalar(self):
        rep, params = adjoint_at(0, 1, 1)
        report = casimir_k2(rep, params)
        eig, ok = kgf_check(rep, params)
        assert eig == report.scalar_value
        assert ok == (abs(report.scalar_value) <= 1e-9)

    def test_spinor_restricted_operator(self):
        """At kappa = lambda = 0 every surviving term involves generators the
        momentum representation does not carry, so the restricted operator
        vanishes identically; brute-force assembly agrees."""
        rep = spinor_momentum_rep(4.0)
        eig, ok = kgf_check(rep, ParameterSet(0.0, 0.0, 4.0))
        assert eig == 0
        assert ok
        brute = quadratic_casimir_matrix(rep, ParameterSet(0.0, 0.0, 4.0))
        assert np.all(brute == 0)

    def test_non_scalar_kernel_route(self):
        """A one-generator 'representation' of the canonical center exercises
        the kernel-dimension fallback."""
        params = ParameterSet(0.0, 0.0, 0.0)
        mats = {ID: np.diag([0.0, 1.0]).astype(complex)}
        rep = Representation(dim=2, mats=mats, params=params)
        eig, ok = kgf_check(rep, params)
        assert eig is None
        assert not ok
