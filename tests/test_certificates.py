"""Whole-family certificates for the exact Killing polynomial.

Each entry of K is a polynomial in (kappa, lambda^2, mu^2) of degree at
most 2 in each variable.  Such a polynomial is determined by its values on
a grid with 3 points per variable (Alon, "Combinatorial Nullstellensatz",
1999), so agreement with the generic contraction on {-1, 0, 1}^3 proves the
two equal at every point.
"""

import json
import random
from fractions import Fraction as Fr
from itertools import product

import pytest

from phasealg import cli, linalg
from phasealg.classify import (
    _killing_polynomial,
    classify,
    killing_det_inertia,
    killing_form,
    semisimplicity_indicator,
)
from phasealg.core import DIM, ParameterSet, structure_constants

GRID = list(product((-1, 0, 1), repeat=3))
GENERIC = {p: killing_form(structure_constants(ParameterSet(*p))) for p in GRID}


def _evaluate(poly, point):
    theta = (1,) + tuple(point)
    return [[sum(coef * theta[i] * theta[j] for i, j, coef in poly.get((a, b), ()))
             for b in range(DIM)] for a in range(DIM)]


def _components(forms):
    """Connected components of the union of the forms' nonzero patterns,
    found by repeated merging (independent of linalg._components)."""
    comps = [{i} for i in range(DIM)]
    for K in forms:
        for a, b in product(range(DIM), repeat=2):
            if K[a][b]:
                ca = next(c for c in comps if a in c)
                cb = next(c for c in comps if b in c)
                if ca is not cb:
                    comps.remove(cb)
                    ca |= cb
    return {frozenset(c) for c in comps}


def certify(poly, blocks):
    """Raise AssertionError unless poly equals the generic Killing form at
    every grid point and blocks are exactly the components of its pattern."""
    for point, K in GENERIC.items():
        got = _evaluate(poly, point)
        for a, b in product(range(DIM), repeat=2):
            assert got[a][b] == K[a][b], "K[%d][%d] at %s: %r != %r" % (
                a, b, point, got[a][b], K[a][b])
    assert sorted(i for b in blocks for i in b) == list(range(DIM)), "blocks do not partition"
    assert {frozenset(b) for b in blocks} == _components(GENERIC.values()), "wrong blocks"


def test_killing_polynomial_equals_generic_form_everywhere():
    poly, blocks = _killing_polynomial()
    certify(poly, blocks)
    assert len(poly) == 23 and sum(len(t) for t in poly.values()) == 24
    assert sorted(map(len, blocks)) == [1] * 7 + [2] * 4


def test_certificate_rejects_any_coefficient_plus_one():
    poly, blocks = _killing_polynomial()
    for ab, terms in poly.items():
        for n, (i, j, coef) in enumerate(terms):
            bad = dict(poly)
            bad[ab] = terms[:n] + ((i, j, coef + 1),) + terms[n + 1:]
            with pytest.raises(AssertionError, match="K\\[%d\\]\\[%d\\]" % ab):
                certify(bad, blocks)


@pytest.mark.parametrize("wrong", [
    # (p0, x1) and (p1, x0) in place of (p0, x0) and (p1, x1)
    lambda bs: [b for b in bs if b not in ((6, 10), (7, 11))] + [(6, 11), (7, 10)],
    # two 1x1 F blocks merged
    lambda bs: [b for b in bs if b not in ((0,), (1,))] + [(0, 1)],
    # a (p, x) block merged with the I block
    lambda bs: [b for b in bs if b not in ((9, 13), (14,))] + [(9, 13, 14)],
    # a (p, x) block split
    lambda bs: [b for b in bs if b != (8, 12)] + [(8,), (12,)],
])
def test_certificate_rejects_wrong_blocks(wrong):
    poly, blocks = _killing_polynomial()
    with pytest.raises(AssertionError, match="wrong blocks"):
        certify(poly, wrong(list(blocks)))


def _generic_record(params):
    K = killing_form(structure_constants(params))
    sig = linalg.inertia_exact(K)
    return [params.kappa, params.lambda_sq, params.mu_sq, str(classify(params)),
            semisimplicity_indicator(params), linalg.det_exact(K),
            sig.n_pos, sig.n_neg, sig.n_zero]


def _rational(rng):
    r = rng.random()
    if r < 0.15:
        return Fr(0)
    digits = rng.choice((1, 3, 7))
    return Fr(rng.randint(-10 ** digits + 1, 10 ** digits - 1), rng.randint(1, 10 ** digits - 1))


def _on_surface(rng):
    """A point with lambda^2 mu^2 = kappa^2 exactly, heights up to 7 digits."""
    k = _rational(rng)
    m2 = Fr(rng.randint(1, 9999999), rng.randint(1, 9999999)) * rng.choice((1, -1))
    return k, k * k / m2, m2


@pytest.mark.parametrize("seed", range(4))
def test_exact_scan_rows_match_generic_path(capsys, seed):
    """Scan rows from the Killing polynomial are byte-identical to rows built
    from the generic contraction with det_exact and inertia_exact."""
    rng = random.Random(seed)
    for _ in range(3):
        k0, l0, m0 = _on_surface(rng) if rng.random() < 0.5 else [_rational(rng) for _ in "klm"]
        axes = [(v, v + abs(_rational(rng)), rng.choice((1, 2, 3))) for v in (k0, l0, m0)]
        argv = ["scan", "--exact", "--format", "csv"]
        for flag, (lo, hi, steps) in zip(("--kappa", "--lambda2", "--mu2"), axes):
            argv += [flag, "%s:%s:%d" % (lo, hi, steps)]
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        grids = [cli._parse_grid("%s:%s:%d" % a, True) for a in axes]
        want = [",".join(cli._fmt(v) for v in _generic_record(ParameterSet(*p)))
                for p in product(*grids)]
        assert rows == want


def test_point_records_match_generic_path_on_and_off_the_surface():
    rng = random.Random(11)
    points = [_on_surface(rng) for _ in range(60)] + [
        tuple(_rational(rng) for _ in "klm") for _ in range(60)]
    points += [(0, 0, 0), (1, 1, 1), (0, 0, 5), (0, Fr(-3, 7), 0), (Fr(2), 0, 0)]
    for p in points:
        params = ParameterSet(*p)
        det, sig = killing_det_inertia(params)
        want = _generic_record(params)
        assert (det, sig.n_pos, sig.n_neg, sig.n_zero) == tuple(want[5:]), p


def test_killing_command_agrees_with_classify(capsys):
    """`killing --exact` contracts K from the structure constants and
    `classify --exact` reads the Killing polynomial: same det and inertia."""
    rng = random.Random(13)
    points = [_on_surface(rng) for _ in range(8)] + [
        tuple(_rational(rng) for _ in "klm") for _ in range(8)]
    for p in points:
        flags = ["--exact", "--format", "json"]
        for flag, v in zip(("--kappa", "--lambda2", "--mu2"), p):
            flags += [flag, str(v)]
        records = []
        for command in ("classify", "killing"):
            assert cli.main([command] + flags) == 0
            records.append(json.loads(capsys.readouterr().out))
        rec, killing = records
        assert killing == {c: rec[c] for c in ("det_killing", "sig_pos", "sig_neg", "sig_zero")}
