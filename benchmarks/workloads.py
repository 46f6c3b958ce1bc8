"""Seeded request decks for the three benchmark workloads.

A request is one CLI command (a scan) or one short command sequence (a
point report).  Requests come in balanced blocks: every block holds the
same multiset of request sizes and input strata, so the latency
percentiles and the failure share of a run that stops at a block boundary
do not depend on which seed drew the individual inputs.  The seed decides
the endpoints, the rational heights, the axis order, the anisotropy of the
rescaling and the order of requests inside a block.

Nothing here imports the program: requests are plain argv lists plus the
parameters the oracle needs to compute its own reference answers.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import class_of, exact_embedding_possible

WORKLOADS = ("scan_float", "scan_exact", "point_report")

# Grid shapes (steps per axis) of the scans.  Five point counts spaced
# roughly geometrically, so batched-scan gains can be read per batch size
# and the p50/p75/p90 positions of a whole block fall inside one shape.
FLOAT_SHAPES = ((3, 3, 3), (3, 4, 5), (4, 5, 7), (5, 7, 9), (9, 9, 9))
EXACT_SHAPES = ((2, 2, 2), (2, 3, 3), (3, 3, 4), (3, 4, 5), (5, 5, 5))

# Rescaling exponents of scan_float: (kappa, lambda^2, mu^2) is mapped to
# (ab kappa, b^2 lambda^2, a^2 mu^2) with a = 2^(e+k), b = 2^(e-k), so the
# grid magnitude 2^e runs log-evenly over about 1e-4 .. 1e2.  Powers of two
# keep every grid point of an integer-endpoint grid exact in binary, so
# those grids still cross the degenerate surface after rescaling.
FLOAT_EXPONENTS = (-13, -8, -3, 2, 7)

# Denominator ranges of scan_exact endpoints, one stratum per request.
EXACT_DENOMINATORS = ((1, 1), (2, 4), (5, 12), (13, 99), (100, 999))

# point_report: one degenerate point plus every semisimple class with and
# without a rational embedding normaliser.
REPORT_KINDS = (
    ("Degenerate", None),
    ("SO(2,4)", True), ("SO(2,4)", False),
    ("SO(1,5)", True), ("SO(1,5)", False),
    ("SO(3,3)", True), ("SO(3,3)", False),
)
REPORT_MAX_ABS = 4  # keeps the K3 centrality residual far below 1e-9


@dataclass(frozen=True)
class Axis:
    """One grid argument start:stop:steps (floats or Fractions)."""

    start: object
    stop: object
    steps: int

    def arg(self):
        if isinstance(self.start, Fraction):
            return "%s:%s:%d" % (self.start, self.stop, self.steps)
        return "%r:%r:%d" % (self.start, self.stop, self.steps)


@dataclass(frozen=True)
class Request:
    """One closed-loop request: commands to run plus the oracle's inputs."""

    index: int
    workload: str
    commands: tuple  # tuple of (name, argv tuple)
    points: int  # parameter points completed by the request
    axes: tuple = ()  # scans: (kappa, lambda2, mu2) Axis triple
    point: tuple = ()  # point_report: exact (kappa, lambda2, mu2)
    masses: tuple = ()  # point_report: (m, m0, mus) as Fractions
    stratum: str = ""  # block stratum the request was drawn from


def _latin_block(rng, n):
    """n*n (shape, stratum) pairs, each shape meeting each stratum once."""
    offset = rng.randrange(n)
    pairs = [(s, (s + r + offset) % n) for r in range(n) for s in range(n)]
    rng.shuffle(pairs)
    return pairs


def _float_scan(rng, index, shape, exponent, integer):
    steps = list(shape)
    rng.shuffle(steps)
    k = rng.choice((-1, 0, 1))
    factors = (2.0 ** (2 * exponent), 2.0 ** (2 * (exponent - k)), 2.0 ** (2 * (exponent + k)))
    axes = []
    for n, factor in zip(steps, factors):
        if integer:
            lo, hi = -rng.randint(1, 3), rng.randint(1, 3)
        else:
            lo, hi = round(rng.uniform(-3, -0.1), 4), round(rng.uniform(0.1, 3), 4)
        axes.append(Axis(lo * factor, hi * factor, n))
    stratum = "e=%d,%s" % (exponent, "integer" if integer else "decimal")
    return _scan_request(index, "scan_float", axes, exact=False, stratum=stratum)


def _exact_scan(rng, index, shape, dens):
    steps = list(shape)
    rng.shuffle(steps)
    axes = []
    for n in steps:
        d_lo, d_hi = rng.randint(*dens), rng.randint(*dens)
        lo = Fraction(rng.randint(-3 * d_lo, 0), d_lo)
        hi = Fraction(rng.randint(1, 3 * d_hi), d_hi)
        axes.append(Axis(lo, hi, n))
    stratum = "den=%d..%d" % dens
    return _scan_request(index, "scan_exact", axes, exact=True, stratum=stratum)


def _scan_request(index, workload, axes, exact, stratum):
    argv = ["scan"] + (["--exact"] if exact else [])
    for flag, axis in zip(("--kappa", "--lambda2", "--mu2"), axes):
        argv += [flag, axis.arg()]
    argv += ["--format", "csv"]
    points = math.prod(a.steps for a in axes)
    return Request(index, workload, (("scan", tuple(argv)),), points,
                   axes=tuple(axes), stratum=stratum)


def _small_rational(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _report_point(rng, tag, embeddable):
    while True:
        if tag == "Degenerate":
            r = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            s = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            sign = rng.choice((1, -1))
            point = (rng.choice((1, -1)) * r * s, sign * r * r, sign * s * s)
        elif embeddable:
            # mu^2 = +-u^2 and (lambda^2 mu^2 - kappa^2)/mu^2 = +-t^2
            u = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            t = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            k = _small_rational(rng, 4, 3)
            s1, s2 = {"SO(1,5)": (1, 1), "SO(3,3)": (-1, -1),
                      "SO(2,4)": rng.choice(((1, -1), (-1, 1)))}[tag]
            m2 = s1 * u * u
            point = (k, k * k / m2 + s2 * t * t, m2)
        else:
            point = tuple(_small_rational(rng, 12, 9) for _ in range(3))
        if point[2] == 0 or max(abs(v) for v in point) > REPORT_MAX_ABS:
            continue
        if class_of(*point) != tag:
            continue
        if tag != "Degenerate" and exact_embedding_possible(*point) != embeddable:
            continue
        return point


def _tenths(t):
    return "%d.%d" % divmod(t, 10)


def _point_report(rng, index, tag, embeddable):
    point = _report_point(rng, tag, embeddable)
    m0_t, mus_t = rng.randint(15, 1200), rng.randint(800, 4000)
    m_t = m0_t + 2 * mus_t
    masses = (Fraction(m_t, 10), Fraction(m0_t, 10), Fraction(mus_t, 10))
    flt = []
    for flag, v in zip(("--kappa", "--lambda2", "--mu2"), point):
        flt += [flag, repr(float(v))]
    exa = ["--exact"]
    for flag, v in zip(("--kappa", "--lambda2", "--mu2"), point):
        exa += [flag, str(v)]
    js = ["--format", "json"]
    semisimple = tag != "Degenerate"
    cmds = [
        ("classify", ["classify"] + flt + js),
        ("killing_exact", ["killing"] + exa + js),
        ("jacobi_exact", ["jacobi"] + exa + js),
    ]
    # embedding and the epsilon Casimirs refuse degenerate points (exit 1)
    if semisimple:
        cmds += [("embed", ["embed"] + flt + js), ("embed_exact", ["embed"] + exa + js)]
    cmds.append(("casimir_K2", ["casimir", "--kind", "K2"] + flt + js))
    if semisimple:
        cmds += [("casimir_K1", ["casimir", "--kind", "K1"] + flt + js),
                 ("casimir_K3", ["casimir", "--kind", "K3"] + flt + js)]
    cmds += [
        ("kgf", ["kgf"] + flt + js),
        ("uncertainty", ["uncertainty", "--mu2", repr(float(abs(point[2])))] + js),
        ("dgl", ["dgl", "--m0", _tenths(m0_t), "--mus", _tenths(mus_t)] + js),
        ("mass", ["mass", "--m", _tenths(m_t), "--m0", _tenths(m0_t)] + js),
    ]
    stratum = tag if not semisimple else "%s,%s" % (tag, "exact" if embeddable else "float")
    return Request(index, "point_report", tuple((n, tuple(a)) for n, a in cmds), 1,
                   point=point, masses=masses, stratum=stratum)


def blocks(workload, seed, salt=""):
    """Endless sequence of balanced request blocks for a workload and seed.

    The first request of the first block is the workload's smallest one;
    the set-up probe times it.  A salt gives an unrelated stream, used for
    warm-up inputs that the timed run never repeats.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d:%s" % (workload, seed, salt))
    index = 0
    for number in itertools.count():
        if workload == "point_report":
            kinds = list(REPORT_KINDS)
            rng.shuffle(kinds)
            block = []
            for tag, emb in kinds:
                block.append(_point_report(rng, index, tag, emb))
                index += 1
        else:
            shapes = FLOAT_SHAPES if workload == "scan_float" else EXACT_SHAPES
            pairs = _latin_block(rng, len(shapes))
            if number == 0:
                smallest = next(i for i, p in enumerate(pairs) if p[0] == 0)
                pairs.insert(0, pairs.pop(smallest))
            block = []
            for shape_i, stratum_i in pairs:
                if workload == "scan_float":
                    # integer endpoints on alternate cells, swapped every block
                    integer = (shape_i + stratum_i + number) % 2 == 0
                    req = _float_scan(rng, index, shapes[shape_i], FLOAT_EXPONENTS[stratum_i],
                                      integer)
                else:
                    req = _exact_scan(rng, index, shapes[shape_i], EXACT_DENOMINATORS[stratum_i])
                block.append(req)
                index += 1
        yield block


def first_request(workload, seed, salt=""):
    return next(blocks(workload, seed, salt))[0]
