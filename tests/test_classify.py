"""Tests for the Killing form, inertia, classification and embedding."""

import math
import random
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest

from phasealg import linalg
from phasealg import classify as classify_module
from phasealg.classify import (
    DEGENERATE_BITS,
    adjoint_representation,
    canonical_inertia,
    classify,
    embedding_deviation,
    inertia,
    inverse_basis_map,
    killing_det,
    killing_form,
    killing_inertia,
    pseudo_orthogonal_embedding,
    semisimplicity_indicator,
    so6_index,
    so_structure_constants,
)
from phasealg.core import (
    DIM,
    F,
    ID,
    InternalConsistencyError,
    InvalidInputError,
    P,
    ParameterSet,
    UnitsParams,
    UnsupportedDomainError,
    convert_units,
    jacobi_residual,
    structure_constants,
)

CLASS_INERTIA = {"SO(2,4)": (8, 7, 0), "SO(1,5)": (5, 10, 0), "SO(3,3)": (9, 6, 0)}
CLASS_INERTIA_OF = {tag: linalg.Inertia(*sig) for tag, sig in CLASS_INERTIA.items()}


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


def _naive_killing(t):
    """K_ab = sum_c sum_d f^c_{ad} f^d_{bc} over a dense copy of the table
    (terms with f^c_{ad} = 0 skipped)."""
    n = t.dim
    f = [[[t.coeff(a, b, c) for c in range(n)] for b in range(n)] for a in range(n)]
    nz = [[(c, d, f[a][d][c]) for c in range(n) for d in range(n) if f[a][d][c]]
          for a in range(n)]
    return [[sum(v * f[b][c][d] for c, d, v in nz[a]) for b in range(n)] for a in range(n)]


class TestKillingContraction:
    def test_matches_naive_contraction_exact(self):
        rng = random.Random(17)
        for k in range(50):
            t = structure_constants(ps(*(Fr(rng.randint(-9, 9), rng.randint(1, 6))
                                         for _ in range(3))))
            if k % 2:  # a table that is no Lie algebra: no structure to lean on
                a, b, c = rng.sample(range(DIM), 3)
                t = t.perturbed(a, b, c, Fr(rng.randint(1, 5), 3))
            assert killing_form(t) == _naive_killing(t)

    def test_matches_naive_contraction_float(self):
        rng = random.Random(18)
        for k in range(50):
            t = structure_constants(ParameterSet(
                *(rng.choice([0.0, rng.uniform(-3, 3), rng.uniform(-1e3, 1e3)]) for _ in range(3))))
            if k % 2:
                a, b, c = rng.sample(range(DIM), 3)
                t = t.perturbed(a, b, c, rng.uniform(-2, 2))
            K, ref = killing_form(t), np.array(_naive_killing(t), dtype=float)
            assert np.max(np.abs(K - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def _leibniz_det(M):
    """Sum over permutations s of sign(s) prod_i M[i][s(i)], built row by
    row and pruned at zero entries."""

    def expand(i, cols):
        if i == len(M):
            return 1
        return sum((-1) ** k * M[i][j] * expand(i + 1, cols[:k] + cols[k + 1:])
                   for k, j in enumerate(cols) if M[i][j])

    return expand(0, list(range(len(M))))


def _permuted_block_matrix(rng, symmetric):
    """A random symmetric permutation of a block-diagonal rational matrix of
    size 1-8 with sparse blocks of size 1-4, some of them singular; returns
    the matrix and its blocks.  A non-symmetric block is tied together by a
    cycle i -> i + 1 whose entries M[i][i + 1] have no transposed partner."""

    def nonzero():
        return Fr(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))

    n = rng.randint(1, 8)
    blocks = []
    while sum(map(len, blocks)) < n:
        s = rng.randint(1, min(4, n - sum(map(len, blocks))))
        B = [[nonzero() if i == j or rng.random() < 0.4 else Fr(0) for j in range(s)]
             for i in range(s)]
        if symmetric:
            B = [[B[min(i, j)][max(i, j)] for j in range(s)] for i in range(s)]
        else:
            for i in range(s):
                B[i][(i + 1) % s] = nonzero()
        if rng.random() < 0.2:  # singular: the last row (and column) vanishes
            B[-1] = [Fr(0)] * s
            for row in B if symmetric else ():
                row[-1] = Fr(0)
        blocks.append(B)
    M = [[Fr(0)] * n for _ in range(n)]
    at = 0
    for B in blocks:
        for i, row in enumerate(B):
            M[at + i][at:at + len(B)] = row
        at += len(B)
    perm = rng.sample(range(n), n)
    return [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)], blocks


def _congruent_form(rng, n):
    """A dense symmetric rational form U^T D U / s, with U unit upper
    triangular and s > 0, and its inertia, which Sylvester's law fixes as
    that of the diagonal D."""
    D = [rng.choice([-2, -1, 0, 0, 1, 2, 3]) for _ in range(n)]
    U = [[int(i == j) if i >= j else rng.randint(-3, 3) for j in range(n)] for i in range(n)]
    s = rng.randint(1, 5)
    S = [[Fr(sum(U[k][i] * D[k] * U[k][j] for k in range(n)), s) for j in range(n)]
         for i in range(n)]
    return S, (sum(d > 0 for d in D), sum(d < 0 for d in D), D.count(0))


class TestBlockElimination:
    """det_exact and inertia_exact reduce each diagonal block on its own."""

    def test_dense_det_matches_leibniz(self):
        rng = random.Random(31)
        for k in range(120):
            n = rng.randint(1, 6)
            M = [[Fr(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            if k % 3 == 0:
                M = [[M[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            assert linalg.det_exact(M) == _leibniz_det(M)

    def test_dense_symmetric_inertia(self):
        rng = random.Random(37)
        for _ in range(120):
            S, want = _congruent_form(rng, rng.randint(1, 9))
            assert linalg.inertia_exact(S).as_tuple() == want
            assert linalg.inertia_float(np.array(S, dtype=float)).as_tuple() == want

    def test_hyperbolic_and_zero_blocks(self):
        for a in (1, -3, Fr(2, 7), 0.5, -1e-3):
            H = [[0, a], [a, 0]]
            assert linalg.inertia_exact(H).as_tuple() == (1, 1, 0)
            assert linalg.det_exact(H) == -Fr(a) ** 2
        for n in range(1, 5):
            Z = [[Fr(0)] * n for _ in range(n)]
            assert linalg.inertia_exact(Z).as_tuple() == (0, 0, n)
            assert linalg.det_exact(Z) == 0
        # hyperbolic pair at rows 0, 3 with a zero row and a negative entry
        M = [[0, 0, 0, 5], [0, 0, 0, 0], [0, 0, Fr(-1, 3), 0], [5, 0, 0, 0]]
        assert linalg.inertia_exact(M).as_tuple() == (1, 2, 1)
        assert linalg.det_exact(M) == 0

    def test_entry_types_agree(self):
        # dyadic entries are the same numbers as int, float and Fraction
        rng = random.Random(41)
        for k in range(60):
            n = rng.randint(1, 7)
            S, _ = _congruent_form(rng, n)
            q = 4 if k % 2 else 1  # quarters, or integers that also fit an int
            S = [[Fr(round(v * q), q) for v in row] for row in S]
            same = [[[float(v) for v in row] for row in S]]
            if k % 2 == 0:
                same.append([[int(v) for v in row] for row in S])
            for M in same:
                assert linalg.det_exact(M) == linalg.det_exact(S)
                assert linalg.inertia_exact(M) == linalg.inertia_exact(S)
                assert isinstance(linalg.det_exact(M), Fr)

    def test_det_matches_leibniz(self):
        rng = random.Random(23)
        for k in range(200):
            M, _ = _permuted_block_matrix(rng, symmetric=k % 2 == 0)
            det = linalg.det_exact(M)
            assert det == _leibniz_det(M)
            assert isinstance(det, Fr)

    def test_inertia_is_sum_over_blocks(self):
        # symmetric forms only: Sylvester's law says nothing of the others
        rng = random.Random(29)
        for _ in range(200):
            M, blocks = _permuted_block_matrix(rng, symmetric=True)
            parts = [linalg.inertia_exact(B).as_tuple() for B in blocks]
            got = linalg.inertia_exact(M).as_tuple()
            assert got == tuple(map(sum, zip(*parts)))
            assert got == linalg.inertia_float(np.array(M, dtype=float)).as_tuple()

    def test_non_finite_float_form_rejected(self):
        for bad in (np.inf, np.nan):
            K = np.identity(3)
            K[0, 1] = K[1, 0] = bad
            with pytest.raises(UnsupportedDomainError):
                linalg.inertia_float(K)


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

    def test_float_default_bound_is_relative(self):
        # |det Q| = 1e-10 puts 8e-10 on K's I-I entry: resolved relative to
        # K's scale, so inertia and classify agree, at every power-of-two scale
        p = ParameterSet(1e-5, 2e-5, 1e-5)
        K = killing_form(structure_constants(p))
        assert classify(p).tag == "SO(1,5)"
        for e in (-900, -40, 0, 40, 900):
            assert inertia(K * 2.0 ** e) == CLASS_INERTIA_OF["SO(1,5)"]
        # an explicit tol stays an absolute bound
        assert inertia(K, tol=1e-9).as_tuple() == (5, 9, 1)

    def test_float_default_bound_absorbs_eigvalsh_rounding(self):
        """B^T diag(d) B with B invertible has the inertia of d (Sylvester).
        On these exactly singular integer forms eigvalsh leaves up to a few
        eps max|w| on the zero eigenvalues, which the bound's factor n covers."""
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 16))
            B = rng.integers(-5, 6, (n, n))
            d = rng.integers(-3, 4, n)
            if np.linalg.matrix_rank(B) < n:
                continue
            want = (int((d > 0).sum()), int((d < 0).sum()), int((d == 0).sum()))
            assert inertia(((B.T * d) @ B).astype(float)).as_tuple() == want

    def test_float_default_agrees_with_closed_form_off_the_surface(self):
        rng = random.Random(17)
        checked = 0
        while checked < 100:
            e = rng.randint(-8, 8)
            v = [rng.uniform(-1, 1) * 2.0 ** (e + rng.randint(-2, 2)) for _ in range(3)]
            if abs(v[1] * v[2] - v[0] ** 2) < 1e-3 * max(abs(v[1] * v[2]), v[0] ** 2):
                continue
            checked += 1
            p = ParameterSet(*v)
            K = killing_form(structure_constants(p))
            assert inertia(K) == killing_inertia(p, K) == CLASS_INERTIA_OF[classify(p).tag]

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


class TestFloatKillingInertia:
    """The closed-form float inertia and its one-sided eigenvalue check."""

    DYADIC = [Fr(j, 4) for j in range(-8, 9)]

    def test_closed_form_matches_exact_inertia_on_dyadic_points(self):
        """Dyadic points are exact in floats, so det Q is too; on and off the
        surface the closed form must give the exact inertia of K."""
        rng = random.Random(13)
        points = [(0, 0, 0), (1, 1, 1), (1, -1, -1), (0, 0, 1), (0, -2, 0), (2, 0, 0)]
        points += [tuple(rng.choice(self.DYADIC) for _ in range(3)) for _ in range(150)]
        points += [(k, k * k / m, m) for k, m in
                   ((rng.choice(self.DYADIC), Fr(rng.choice((1, 2, 4, -1, -2, -4)), 2))
                    for _ in range(50))]
        for p in points:
            want = linalg.inertia_exact(killing_form(structure_constants(ParameterSet(*p))))
            pf = ParameterSet(*(float(v) for v in p))
            got = killing_inertia(pf, killing_form(structure_constants(pf)))
            assert got == want, p
            assert classify(pf) == classify(ParameterSet(*p)), p

    def test_band_is_relative(self):
        # 1e-5 scale: |det Q| = 1e-10 is far from the surface, relative to 2e-10
        assert classify(ParameterSet(1e-5, 2e-5, 1e-5)).tag == "SO(1,5)"
        # the same relative distance at every power-of-two scale, products
        # past the float range included
        band = math.ldexp(1.0, -DEGENERATE_BITS)
        for e in (-1000, -600, -100, 0, 100, 600, 1000):
            k = math.ldexp(1.0, e)
            on = ParameterSet(k * (1 + band / 4), k, k)
            off = ParameterSet(k * (1 + 64 * band), k, k)
            assert classify(on).degenerate
            assert classify(off).tag == "SO(2,4)"
        # kappa^2 alone decides, however far below lambda^2 the point lies
        assert classify(ParameterSet(-1.0, 9e209, -0.0)).tag == "SO(2,4)"
        assert classify(ParameterSet(1e-200, 0.0, 1.0)).tag == "SO(2,4)"
        assert classify(ParameterSet(0.0, 1e-200, 1e-200)).tag == "SO(1,5)"

    def test_overflowed_form_is_refused(self):
        p = ParameterSet(1e155, 1e155, 1.0)
        with pytest.raises(UnsupportedDomainError):
            killing_inertia(p, killing_form(structure_constants(p)))

    @pytest.mark.parametrize("seed", range(3))
    def test_flipped_sign_in_killing_form_trips_the_check(self, seed):
        """Off the surface and at moderate magnitude every eigenvalue of K is
        resolved, so a sign flipped on its I-I entry (the -8 det Q block), or
        on an F entry at a degenerate point, outnumbers the closed form."""
        rng = random.Random(seed)
        for _ in range(40):
            e = rng.randint(-8, 8)
            v = [rng.uniform(-1, 1) * 2.0 ** (e + rng.randint(-2, 2)) for _ in range(3)]
            p = ParameterSet(*v)
            if abs(v[1] * v[2] - v[0] ** 2) < 1e-3 * max(abs(v[1] * v[2]), v[0] ** 2):
                continue
            K = killing_form(structure_constants(p))
            assert killing_inertia(p, K) == CLASS_INERTIA_OF[classify(p).tag]
            K[ID, ID] = -K[ID, ID]
            with pytest.raises(InternalConsistencyError):
                killing_inertia(p, K)
        for v in ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (-0.5, -2.0, -0.125), (0.0, 0.0, 3.0)):
            p = ParameterSet(*v)
            K = killing_form(structure_constants(p))
            K[F(1, 2), F(1, 2)] = -K[F(1, 2), F(1, 2)]
            with pytest.raises(InternalConsistencyError):
                killing_inertia(p, K)


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

    def test_embedding_carries_the_class_it_was_checked_against(self, monkeypatch):
        calls = []
        real = classify_module.classify
        monkeypatch.setattr(classify_module, "classify", lambda p: calls.append(p) or real(p))
        for p in (EXACT_EMBED_POINT, FLOAT_EMBED_POINT, ps(0, Fr(1, 100000), Fr(1, 100000))):
            calls.clear()
            emb = pseudo_orthogonal_embedding(p)
            assert calls == [p]
            assert emb.algebra_class == real(p)
        assert not emb.exact  # irrational normaliser: float fallback, exact class

    @pytest.mark.parametrize("point", [
        (0.007235151356978233, 1.0, 5.234741515838386e-05),  # 2e-15 of the surface
        (0.999999999, 1.0, 1.0),
        (1.2696093313976675e141, 3.19324214185191e281, 5.0478722964532485),
        (-7.709245913274541e-274, 6.298804309243059e-196, 1.459728154270369e-122),  # subnormal
    ])
    def test_ill_conditioned_float_embedding_is_a_domain_limit(self, point):
        """Where det Q's rounding allows a deviation above tol, a float
        embedding that misses tol is refused, not reported as a defect; a
        looser tol takes it."""
        p = ParameterSet(*point)
        assert not classify(p).degenerate
        with pytest.raises(UnsupportedDomainError):
            pseudo_orthogonal_embedding(p)
        emb = pseudo_orthogonal_embedding(p, tol=0.5)
        assert 1e-9 < emb.deviation <= 0.5

    def test_deviation_at_a_well_conditioned_point_stays_a_defect(self, monkeypatch):
        monkeypatch.setattr(classify_module, "embedding_deviation", lambda emb: 1e-6)
        with pytest.raises(InternalConsistencyError):
            pseudo_orthogonal_embedding(FLOAT_EMBED_POINT)
        with pytest.raises(UnsupportedDomainError):
            pseudo_orthogonal_embedding(ParameterSet(0.999999999, 1.0, 1.0))

    def test_inverse_basis_map_is_exact_inverse(self):
        emb = pseudo_orthogonal_embedding(EXACT_EMBED_POINT)
        assert emb.s_matrix[0][1] != 0
        inv = inverse_basis_map(emb)
        for r, row in enumerate(emb.basis_map):
            for s in range(DIM):
                entry = sum(row[a] * inv[a].get(s, 0) for a in range(DIM))
                assert entry == (1 if r == s else 0)
