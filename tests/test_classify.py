"""Tests for the Killing form, inertia, classification and embedding."""

import random
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest

from phasealg import linalg
from phasealg.classify import (
    adjoint_representation,
    canonical_inertia,
    classify,
    embedding_deviation,
    inertia,
    inverse_basis_map,
    killing_det,
    killing_form,
    pseudo_orthogonal_embedding,
    semisimplicity_indicator,
    so6_index,
    so_structure_constants,
)
from phasealg.core import (
    DIM,
    F,
    ID,
    InvalidInputError,
    P,
    ParameterSet,
    UnitsParams,
    convert_units,
    jacobi_residual,
    structure_constants,
)

CLASS_INERTIA = {"SO(2,4)": (8, 7, 0), "SO(1,5)": (5, 10, 0), "SO(3,3)": (9, 6, 0)}


def ps(k, l2, m2):
    return ParameterSet(Fr(k), Fr(l2), Fr(m2))


# rational Gram normalizers with an off-diagonal S; and a float point
EXACT_EMBED_POINT = ps(Fr(1, 2), Fr(5, 4), 1)
FLOAT_EMBED_POINT = ParameterSet(1.0, 1.0, 0.5)


def _flip_metric_entry(emb):
    eta = list(emb.six_metric)
    eta[4] = -eta[4]
    return replace(emb, six_metric=tuple(eta))


def _double_basis_row(emb):
    r = so6_index(0, 4)
    rows = [[2 * v for v in row] if k == r else row for k, row in enumerate(emb.basis_map)]
    return replace(emb, basis_map=rows)


class TestAdjoint:
    def test_scalar_generator_acts_as_zero_at_canonical_point(self):
        rep = adjoint_representation(structure_constants(ps(0, 0, 0)))
        assert np.all(rep.mats[ID] == 0)

    def test_bracket_closure(self):
        t = structure_constants(ps(1, 1, 1))
        rep = adjoint_representation(t)
        lhs = rep.mats[P(0)] @ rep.mats[P(1)] - rep.mats[P(1)] @ rep.mats[P(0)]
        assert np.max(np.abs(lhs - 1j * rep.mats[F(0, 1)])) < 1e-12

    def test_traceless(self):
        for p in [ps(0, 0, 0), ps(1, 1, 1), ParameterSet(0.7, -1.2, 2.5)]:
            rep = adjoint_representation(structure_constants(p))
            for m in rep.mats.values():
                assert abs(np.trace(m)) < 1e-12


class TestKillingForm:
    def test_central_row_vanishes_at_canonical_point(self):
        K = killing_form(structure_constants(ps(0, 0, 0)))
        assert all(K[ID][b] == 0 for b in range(DIM))
        assert all(K[a][ID] == 0 for a in range(DIM))

    def test_degenerate_at_unit_point(self):
        K = killing_form(structure_constants(ps(1, 1, 1)))
        assert killing_det(K) == 0

    def test_sign_calibration(self):
        # rotations compact (negative), boosts noncompact (positive)
        K = killing_form(structure_constants(ps(0, 1, 1)))
        assert K[F(1, 2)][F(1, 2)] < 0
        assert K[F(0, 1)][F(0, 1)] > 0

    def test_symmetric(self):
        K = killing_form(structure_constants(ParameterSet(0.3, -1.5, 2.0)))
        assert np.max(np.abs(K - K.T)) == 0


class TestInertia:
    def test_degenerate_point_has_kernel(self):
        K = killing_form(structure_constants(ps(1, 1, 1)))
        assert inertia(K).n_zero >= 1

    def test_so15_point_matches_canonical_oracle(self):
        K = killing_form(structure_constants(ps(Fr(1, 2), 1, 1)))
        assert inertia(K).as_tuple() == canonical_inertia(1, 5).as_tuple()
        assert canonical_inertia(1, 5).as_tuple() == (5, 10, 0)

    def test_identity(self):
        ident = [[Fr(int(i == j)) for j in range(15)] for i in range(15)]
        assert linalg.inertia_exact(ident).as_tuple() == (15, 0, 0)

    def test_float_matches_exact(self):
        rng = random.Random(5)
        for _ in range(10):
            p = ps(
                Fr(rng.randint(-6, 6), rng.randint(1, 4)),
                Fr(rng.randint(-6, 6), rng.randint(1, 4)),
                Fr(rng.randint(-6, 6), rng.randint(1, 4)),
            )
            K = killing_form(structure_constants(p))
            Kf = np.array([[float(v) for v in row] for row in K])
            exact = linalg.inertia_exact(K)
            if exact.n_zero == 0:
                assert linalg.inertia_float(Kf, tol=1e-6).as_tuple() == exact.as_tuple()


class TestIndicatorAndClassify:
    def test_indicator_values(self):
        assert semisimplicity_indicator(ps(1, 1, 1)) == 0
        assert semisimplicity_indicator(ps(0, 0, 0)) == 0
        assert semisimplicity_indicator(ParameterSet(0.5, 1.0, 1.0)) == 0.75

    def test_representative_points(self):
        assert classify(ParameterSet(1.0, 1.0, 0.5)).tag == "SO(2,4)"
        assert classify(ParameterSet(0.5, 1.0, 1.0)).tag == "SO(1,5)"
        assert classify(ParameterSet(0.5, -1.0, -1.0)).tag == "SO(3,3)"

    def test_degenerate_reason(self):
        cls = classify(ps(1, 1, 1))
        assert cls.degenerate
        assert "det Q" in cls.reason

    @staticmethod
    def _table1_class(M2, L2, H2):
        """Literal transcription of the published parameter-domain table."""
        if H2 < M2 * L2 and M2 > 0 and L2 > 0:
            return "SO(2,4)"
        if H2 < M2 * L2 and M2 < 0 and L2 < 0:
            return "SO(2,4)"
        if (M2 > 0 > L2) or (M2 < 0 < L2):
            return "SO(2,4)"
        if H2 > M2 * L2 and M2 > 0 and L2 > 0:
            return "SO(1,5)"
        if H2 > M2 * L2 and M2 < 0 and L2 < 0:
            return "SO(3,3)"
        return None  # boundary stratum not covered by the table

    def test_agrees_with_parameter_domain_table(self):
        rng = random.Random(42)
        seen = set()
        trials = 0
        while trials < 400:
            M2 = Fr(rng.randint(-8, 8), rng.randint(1, 4))
            L2 = Fr(rng.randint(-8, 8), rng.randint(1, 4))
            H2 = Fr(rng.randint(1, 12), rng.randint(1, 4))
            if M2 == 0 or L2 == 0:
                continue
            want = self._table1_class(M2, L2, H2)
            if want is None:
                continue
            trials += 1
            seen.add(want)
            got = classify(convert_units(UnitsParams(Fr(1), M2, L2, H2)))
            assert got.tag == want, (M2, L2, H2)
        assert seen == {"SO(2,4)", "SO(1,5)", "SO(3,3)"}

    def test_agrees_with_killing_inertia_oracle(self):
        rng = random.Random(9)
        checked = 0
        while checked < 40:
            p = ps(
                Fr(rng.randint(-6, 6), rng.randint(1, 4)),
                Fr(rng.randint(-6, 6), rng.randint(1, 4)),
                Fr(rng.randint(-6, 6), rng.randint(1, 4)),
            )
            cls = classify(p)
            if cls.degenerate:
                continue
            checked += 1
            sig = inertia(killing_form(structure_constants(p))).as_tuple()
            pq = cls.signature
            assert sig == canonical_inertia(*pq).as_tuple()

    def test_canonical_oracle_values(self):
        assert canonical_inertia(2, 4).as_tuple() == (8, 7, 0)
        assert canonical_inertia(1, 5).as_tuple() == (5, 10, 0)
        assert canonical_inertia(3, 3).as_tuple() == (9, 6, 0)

    def test_det_indicator_equivalence_on_degenerate_surface(self):
        rng = random.Random(21)
        for _ in range(25):
            r = Fr(rng.randint(1, 6), rng.randint(1, 3))
            s = Fr(rng.randint(1, 6), rng.randint(1, 3))
            sign = rng.choice([1, -1])
            p = ParameterSet(r * s, sign * r * r, sign * s * s)
            assert semisimplicity_indicator(p) == 0
            assert killing_det(killing_form(structure_constants(p))) == 0


class TestCanonicalAlgebras:
    def test_so_tensors_are_lie_algebras(self):
        for p, q in [(1, 5), (2, 4), (3, 3)]:
            eta = (1,) * p + (-1,) * q
            assert jacobi_residual(so_structure_constants(eta)) == 0


class TestEmbedding:
    def test_yang_type_point_exact(self):
        emb = pseudo_orthogonal_embedding(ps(0, 1, 1))
        assert emb.exact
        assert emb.six_metric == (1, -1, -1, -1, -1, -1)
        assert embedding_deviation(emb) == 0

    def test_negative_squares_point(self):
        emb = pseudo_orthogonal_embedding(ps(0, -1, -1))
        assert emb.six_metric == (1, -1, -1, -1, 1, 1)
        assert embedding_deviation(emb) == 0

    def test_mixed_point_float(self):
        emb = pseudo_orthogonal_embedding(ParameterSet(1.0, 1.0, 0.5))
        assert sorted(emb.six_metric[4:]) == [-1, 1]
        assert embedding_deviation(emb) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidInputError):
            pseudo_orthogonal_embedding(ps(1, 1, 1))

    def test_random_semisimple_roundtrip(self):
        rng = random.Random(77)
        done = 0
        while done < 20:
            p = ParameterSet(
                round(rng.uniform(-2, 2), 3),
                round(rng.uniform(-2, 2), 3),
                round(rng.uniform(-2, 2), 3),
            )
            cls = classify(p)
            if cls.degenerate or abs(semisimplicity_indicator(p)) < 1e-3:
                continue
            done += 1
            emb = pseudo_orthogonal_embedding(p)
            assert embedding_deviation(emb) < 1e-9
            sig = (
                sum(1 for e in emb.six_metric if e > 0),
                sum(1 for e in emb.six_metric if e < 0),
            )
            assert sig == cls.signature

    def test_hyperbolic_case(self):
        # mu^2 = lambda^2 = 0 with kappa != 0 still embeds
        emb = pseudo_orthogonal_embedding(ParameterSet(1.0, 0.0, 0.0))
        assert embedding_deviation(emb) < 1e-9
        assert classify(ParameterSet(1.0, 0.0, 0.0)).tag == "SO(2,4)"

    def test_zero_mu_sq_pivot_case(self):
        emb = pseudo_orthogonal_embedding(ParameterSet(1.0, 2.0, 0.0))
        assert embedding_deviation(emb) < 1e-9

    @pytest.mark.parametrize("corrupt", [_flip_metric_entry, _double_basis_row])
    def test_self_check_rejects_wrong_embedding(self, corrupt):
        exact = pseudo_orthogonal_embedding(EXACT_EMBED_POINT)
        assert exact.exact
        assert embedding_deviation(corrupt(exact)) > 0
        flt = pseudo_orthogonal_embedding(FLOAT_EMBED_POINT)
        assert embedding_deviation(corrupt(flt)) > 1e-9

    def test_stored_deviation_is_the_self_check(self):
        exact = pseudo_orthogonal_embedding(EXACT_EMBED_POINT)
        assert isinstance(exact.deviation, Fr)
        assert exact.deviation == embedding_deviation(exact) == 0
        flt = pseudo_orthogonal_embedding(FLOAT_EMBED_POINT)
        assert flt.deviation == embedding_deviation(flt)

    def test_inverse_basis_map_is_exact_inverse(self):
        emb = pseudo_orthogonal_embedding(EXACT_EMBED_POINT)
        assert emb.s_matrix[0][1] != 0
        inv = inverse_basis_map(emb)
        for r, row in enumerate(emb.basis_map):
            for s in range(DIM):
                entry = sum(row[a] * inv[a].get(s, 0) for a in range(DIM))
                assert entry == (1 if r == s else 0)
