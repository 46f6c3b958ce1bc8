"""Tests for the generator basis, parameters and structure constants."""

import math
import random
from fractions import Fraction as Fr
from itertools import combinations, product

import pytest

from phasealg import core
from phasealg.core import (
    DIM,
    F,
    ID,
    InvalidInputError,
    P,
    ParameterSet,
    UnitsParams,
    UnsupportedDomainError,
    X,
    basis_element,
    bracket,
    convert_units,
    jacobi_residual,
    metric,
    structure_constants,
)
from test_acceptance import _build_grid


def exact_params(k, l2, m2):
    return ParameterSet(Fr(k), Fr(l2), Fr(m2))


class TestStructureConstants:
    def test_momentum_bracket_coefficient(self):
        t = structure_constants(exact_params(1, 1, 1))
        assert t.coeff(P(0), P(1), F(0, 1)) == 1  # mu^2

    def test_canonical_limit_brackets(self):
        t = structure_constants(exact_params(0, 0, 0))
        for i, j in combinations(range(4), 2):
            assert t.bracket_basis(P(i), P(j)) == {}
            assert t.bracket_basis(X(i), X(j)) == {}
        for i in range(4):
            for j in range(4):
                want = {ID: metric(i, j)} if i == j else {}
                assert t.bracket_basis(P(i), X(j)) == want
        # central scalar generator
        for a in range(DIM):
            if a != ID:
                assert t.bracket_basis(a, ID) == {}

    def test_scalar_bracket_at_kappa_one(self):
        t = structure_constants(exact_params(1, 0, 0))
        row = t.bracket_basis(P(0), ID)
        assert row.get(P(0)) == -1  # -kappa
        assert row.get(X(0), 0) == 0  # mu^2 = 0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            structure_constants(ParameterSet(float("nan"), 0.0, 0.0))
        with pytest.raises(InvalidInputError):
            structure_constants(ParameterSet(float("inf"), 0.0, 0.0))

    def test_antisymmetry_entrywise(self):
        rng = random.Random(7)
        for _ in range(25):
            p = exact_params(
                Fr(rng.randint(-9, 9), rng.randint(1, 5)),
                Fr(rng.randint(-9, 9), rng.randint(1, 5)),
                Fr(rng.randint(-9, 9), rng.randint(1, 5)),
            )
            assert core.antisymmetry_violation(structure_constants(p)) == 0

    def test_lorentz_blocks_parameter_independent(self):
        """F-F, F-p, F-x and F-I brackets never depend on the parameters."""
        base = structure_constants(exact_params(0, 0, 0))
        other = structure_constants(exact_params(3, -5, Fr(7, 2)))
        f_idx = range(6)
        for a in f_idx:
            for b in range(DIM):
                assert base.bracket_basis(a, b) == other.bracket_basis(a, b)

    def test_lorentz_subtensor_is_lorentz_algebra(self):
        """The F-F block matches the bracket formula expanded by hand."""
        t = structure_constants(exact_params(2, 3, 4))
        for (i, j), (k, l) in combinations(core.F_PAIRS, 2):
            got = t.bracket_basis(F(i, j), F(k, l))
            want = {}

            def put(coef, m, n):
                if coef == 0 or m == n:
                    return
                key = F(m, n) if m < n else F(n, m)
                sign = 1 if m < n else -1
                want[key] = want.get(key, 0) + sign * coef

            put(metric(j, k), i, l)
            put(-metric(i, k), j, l)
            put(metric(i, l), j, k)
            put(-metric(j, l), i, k)
            assert got == {k_: v for k_, v in want.items() if v != 0}


class TestConvertUnits:
    def test_direct_reciprocals(self):
        p = convert_units(UnitsParams(Fr(1), Fr(4), Fr(1), Fr(1)))
        assert (p.kappa, p.lambda_sq, p.mu_sq) == (1, Fr(1, 4), 1)

    def test_sign_passthrough_on_squares(self):
        p = convert_units(UnitsParams(Fr(1), Fr(-1), Fr(-1), Fr(1)))
        assert (p.kappa, p.lambda_sq, p.mu_sq) == (1, -1, -1)

    def test_half_mu_sq(self):
        p = convert_units(UnitsParams(Fr(1), Fr(1), Fr(2), Fr(1)))
        assert (p.kappa, p.lambda_sq, p.mu_sq) == (1, 1, Fr(1, 2))

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidInputError):
            convert_units(UnitsParams(1, 0, 1, 1))

    def test_negative_h_sq_rejected(self):
        with pytest.raises(UnsupportedDomainError):
            convert_units(UnitsParams(1, 1, 1, -4))

    def test_irrational_root_falls_back_to_float(self):
        p = convert_units(UnitsParams(Fr(1), Fr(1), Fr(1), Fr(2)))
        assert not p.exact
        assert p.kappa == pytest.approx(1 / math.sqrt(2))


class TestBracket:
    def test_momentum_pair(self):
        t = structure_constants(exact_params(1, 1, 1))
        out = bracket(
            basis_element(P(1), exact=True), basis_element(P(2), exact=True), t
        )
        want = [Fr(0)] * DIM
        want[F(1, 2)] = Fr(1)
        assert out == want

    def test_self_bracket_vanishes(self):
        t = structure_constants(exact_params(Fr(1, 3), -2, 5))
        rng = random.Random(3)
        for _ in range(10):
            e = [Fr(rng.randint(-5, 5)) for _ in range(DIM)]
            assert all(v == 0 for v in bracket(e, e, t))

    def test_vector_rotation_by_hand(self):
        # [F_12, p_1] = i(g_21 p_1 - g_11 p_2) = +i p_2 with g_11 = -1
        t = structure_constants(exact_params(1, 1, 1))
        out = bracket(
            basis_element(F(1, 2), exact=True), basis_element(P(1), exact=True), t
        )
        want = [Fr(0)] * DIM
        want[P(2)] = Fr(1)
        assert out == want

    def test_bilinearity(self):
        t = structure_constants(exact_params(Fr(2, 3), Fr(-1, 2), 4))
        rng = random.Random(11)
        for _ in range(20):
            a = [Fr(rng.randint(-4, 4)) for _ in range(DIM)]
            b = [Fr(rng.randint(-4, 4)) for _ in range(DIM)]
            c = [Fr(rng.randint(-4, 4)) for _ in range(DIM)]
            alpha, beta = Fr(rng.randint(-3, 3)), Fr(rng.randint(-3, 3))
            lhs = bracket([alpha * u + beta * v for u, v in zip(a, b)], c, t)
            r1 = bracket(a, c, t)
            r2 = bracket(b, c, t)
            assert lhs == [alpha * u + beta * v for u, v in zip(r1, r2)]

    def test_mixed_modes_rejected(self):
        t = structure_constants(exact_params(1, 1, 1))
        with pytest.raises(InvalidInputError):
            bracket(basis_element(P(0)), basis_element(P(1), exact=True), t)


class TestJacobi:
    def test_exact_zero(self):
        assert jacobi_residual(structure_constants(exact_params(1, 1, 1))) == 0

    def test_float_zero(self):
        res = jacobi_residual(structure_constants(ParameterSet(0.3, -2.0, 5.0)))
        assert res <= 1e-9

    def test_perturbation_detected(self):
        t = structure_constants(exact_params(1, 1, 1))
        broken = t.perturbed(P(0), P(1), F(0, 1), Fr(1))
        assert jacobi_residual(broken) >= 1


class TestAffineTemplate:
    """structure_constants evaluates a cached template; the term-by-term
    builder it is read from stays the reference, order and types included."""

    @staticmethod
    def assert_same_as_builder(params):
        t = structure_constants(params)
        ref = core._build_table(params.kappa, params.lambda_sq, params.mu_sq)
        assert repr(list(t.table.items())) == repr(list(ref.items()))
        assert t.exact is params.exact

    def test_criterion_1_grid(self):
        for triple in _build_grid():
            self.assert_same_as_builder(ParameterSet(*triple))

    def test_float_and_mixed_points(self):
        values = (0.0, -0.0, 1e-300, 1e200, -2.5, 1, Fr(-1, 3))
        for triple in product(values, repeat=3):
            self.assert_same_as_builder(ParameterSet(*triple))
