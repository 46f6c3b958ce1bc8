"""Reference answers for every benchmark request, independent of phasealg.

Nothing here imports the program.  The references are closed forms:

* class from the sign rules on lambda^2 mu^2 - kappa^2 and mu^2, evaluated
  exactly on the Fraction value of the parameters the program saw;
* det K = 2^45 (lambda^2 mu^2 - kappa^2)^5;
* Killing inertia (8,7,0), (5,10,0), (9,6,0) for SO(2,4), SO(1,5), SO(3,3)
  and at least one zero on the degenerate surface;
* an embedding's 2x2 normaliser S must satisfy S^T Q S = -diag(eta_4, eta_5)
  for the Gram form Q = [[mu^2, kappa], [kappa, lambda^2]];
* the adjoint quadratic Casimir is the scalar 8 (lambda^2 mu^2 - kappa^2);
* Robertson on the spin-up spinor: delta p1 = delta p2 = sqrt(mu^2)/2,
  bound mu^2/4; the reduced Dirac spectrum {m0 + 2|mu_s|, 2|mu_s| - m0}
  twice each; |mu_s| = (m - m0)/2.

Float answers within a relative distance NEAR_SURFACE of the degenerate
surface may come out either way: rounding of the inputs alone moves them
across it.  A float class or inertia that calls a semisimple point of
magnitude <= KNOWN_DEFECT_MAGNITUDE degenerate is the documented defect of
the absolute tol=1e-9; it counts as a failure like any other, and is
additionally tallied as "known".
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

SCAN_HEADER = "kappa,lambda_sq,mu_sq,class,indicator,det_killing,sig_pos,sig_neg,sig_zero"
KILLING_INERTIA = {"SO(2,4)": (8, 7, 0), "SO(1,5)": (5, 10, 0), "SO(3,3)": (9, 6, 0)}
SIX_SIGNATURE = {"SO(2,4)": (2, 4), "SO(1,5)": (1, 5), "SO(3,3)": (3, 3)}
DET_FACTOR = 2 ** 45
NEAR_SURFACE = Fraction(1, 10 ** 12)
DET_CHECK_DISTANCE = Fraction(1, 10 ** 6)  # float det is checked beyond this
DET_RTOL = Fraction(1, 10 ** 6)
ROUNDING_RTOL = Fraction(4, 2 ** 52)  # a few roundings of binary64 arithmetic
FLOAT_TOL = 1e-9
KNOWN_DEFECT_MAGNITUDE = Fraction(1, 1000)


def class_of(k, l2, m2):
    """Class from the sign rules on lambda^2 mu^2 - kappa^2 and mu^2."""
    dq = l2 * m2 - k * k
    if dq == 0:
        return "Degenerate"
    if dq < 0:
        return "SO(2,4)"
    return "SO(1,5)" if m2 > 0 else "SO(3,3)"


def _is_square(q):
    q = abs(Fraction(q))
    return (math.isqrt(q.numerator) ** 2 == q.numerator
            and math.isqrt(q.denominator) ** 2 == q.denominator)


def exact_embedding_possible(k, l2, m2):
    """True when Q = [[mu^2, kappa], [kappa, lambda^2]] reaches diag(+-1, +-1)
    over the rationals by the Lagrange step with mu^2 as first pivot."""
    dq = l2 * m2 - k * k
    return m2 != 0 and dq != 0 and _is_square(m2) and _is_square(dq / m2)


def height_digits(values):
    """Decimal digits of the largest numerator or denominator among values."""
    h = max(max(abs(v.numerator), v.denominator) for v in values)
    return len(str(h))


@dataclass
class Verdict:
    """Outcome of checking one request (or an accumulation of them)."""

    attempted: int = 0
    failed: int = 0
    known: int = 0  # failures matching the documented absolute-tolerance defect
    problems: list = field(default_factory=list)  # first few unexplained failures
    known_examples: list = field(default_factory=list)
    props: Counter = field(default_factory=Counter)

    def fail(self, message, known=False):
        self.failed += 1
        self.known += known
        examples = self.known_examples if known else self.problems
        if len(examples) < 5:
            examples.append(message)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.props.update(other.props)
        for mine, theirs in ((self.problems, other.problems),
                             (self.known_examples, other.known_examples)):
            mine.extend(theirs[:max(5 - len(mine), 0)])


def _close(got, want, rtol, atol=0.0):
    return abs(got - want) <= max(rtol * abs(want), atol)


def check_point(point, cls, indicator, det, sig, exact):
    """Problems with one classified point; returns (message or None, known)."""
    k, l2, m2 = point
    prod, kk = l2 * m2, k * k
    dq = prod - kk
    scale = max(abs(prod), kk)
    want = class_of(k, l2, m2)
    got = "Degenerate" if cls.startswith("Degenerate") else cls
    sig_zero = sig[2] >= 1 and sum(sig) == 15
    zero_ok = got == "Degenerate" and sig_zero
    semi_ok = want != "Degenerate" and got == want and sig == KILLING_INERTIA[want]
    near = not exact and scale and abs(dq) <= NEAR_SURFACE * scale
    if want == "Degenerate":
        class_ok = zero_ok
    elif near:
        # class and inertia are separate float decisions; either may flip
        class_ok = got in ("Degenerate", want) and (sig_zero or sig == KILLING_INERTIA[want])
    else:
        class_ok = semi_ok
    if exact:
        ind_ok = Fraction(indicator) == dq
    else:
        ind_ok = abs(Fraction(indicator) - dq) <= ROUNDING_RTOL * scale
    ref = DET_FACTOR * dq ** 5
    if exact:
        det_ok = det == ref
    elif scale and abs(dq) > DET_CHECK_DISTANCE * scale:
        det_ok = abs(Fraction(det) - ref) <= DET_RTOL * abs(ref)
    else:
        det_ok = True
    if class_ok and ind_ok and det_ok:
        return None, False
    magnitude = max(abs(k), abs(l2), abs(m2))
    known = (not exact and ind_ok and det_ok and want != "Degenerate"
             and (got == "Degenerate" or sig[2] > 0)
             and magnitude <= KNOWN_DEFECT_MAGNITUDE)
    msg = "point %s: class %s sig %s (want %s)%s%s" % (
        tuple(str(v) for v in point), cls, sig, want,
        "" if ind_ok else " indicator %r != %s" % (indicator, dq),
        "" if det_ok else " det %r != %s" % (det, ref))
    return msg, known


def _grid(axis):
    start, stop = Fraction(axis.start), Fraction(axis.stop)
    if axis.steps == 1:
        return [start]
    return [start + (stop - start) * j / (axis.steps - 1) for j in range(axis.steps)]


def _parse_value(text, exact):
    return Fraction(text) if exact else Fraction(float(text))


def check_scan(request, rc, out):
    """Check a scan's CSV against the grid and the per-point references."""
    exact = "--exact" in request.commands[0][1]
    v = Verdict(attempted=request.points)
    grids = [_grid(a) for a in request.axes]
    expected = [(k, l2, m2) for k in grids[0] for l2 in grids[1] for m2 in grids[2]]
    # the program rounds start + span*j/(steps-1) in binary; allow that
    tols = [0 if exact else ROUNDING_RTOL * max(abs(Fraction(a.start)), abs(Fraction(a.stop)))
            for a in request.axes]
    for point in expected:
        _point_props(v.props, point, exact)
    v.props["requests"] += 1
    v.props["grid_points=%d" % request.points] += 1
    lines = out.split("\n") if rc == 0 else []
    rows = lines[1:-1] if lines and lines[0] == SCAN_HEADER and lines[-1] == "" else []
    if rc != 0 or len(rows) != len(expected):
        v.failed = request.points
        v.problems.append("exit %r, %d rows for %d points" % (rc, len(rows), len(expected)))
        return v
    for want_point, row in zip(expected, rows):
        f = row.split(",")  # the class itself may hold a comma: SO(2,4)
        try:
            point = tuple(_parse_value(t, exact) for t in f[:3])
            cls, indicator = ",".join(f[3:-5]), _parse_value(f[-5], exact)
            det = _parse_value(f[-4], exact)
            sig = tuple(int(t) for t in f[-3:])
        except (ValueError, ZeroDivisionError, IndexError, OverflowError):
            v.fail("malformed row %r" % row)
            continue
        if any(abs(p - w) > t for p, w, t in zip(point, want_point, tols)):
            v.fail("row %r is not grid point %s" % (row, want_point))
            continue
        msg, known = check_point(point, cls, indicator, det, sig, exact)
        if msg:
            v.fail(msg, known)
    return v


def _point_props(props, point, exact):
    k, l2, m2 = point
    props["points"] += 1
    props["on_surface"] += l2 * m2 == k * k
    props["below_1e-2"] += max(abs(k), abs(l2), abs(m2)) < Fraction(1, 100)
    if exact:
        props["height_digits=%d" % min(height_digits(point), 9)] += 1


# ---------------------------------------------------------------------------
# point_report: one checker per command; each returns a problem or None

def _float_point(point):
    return tuple(Fraction(float(v)) for v in point)


def _gram(point, c, d):
    k, l2, m2 = point
    return m2 * c[0] * d[0] + k * (c[0] * d[1] + c[1] * d[0]) + l2 * c[1] * d[1]


def _check_classify(req, d):
    fp = _float_point(req.point)
    got_point = tuple(Fraction(d[key]) for key in ("kappa", "lambda_sq", "mu_sq"))
    if got_point != fp:
        return "classify echoed %s for %s" % (got_point, fp)
    sig = (d["sig_pos"], d["sig_neg"], d["sig_zero"])
    msg, _ = check_point(fp, d["class"], d["indicator"], d["det_killing"], sig, False)
    return msg


def _check_killing_exact(req, d):
    sig = (d["sig_pos"], d["sig_neg"], d["sig_zero"])
    k, l2, m2 = req.point
    dq = l2 * m2 - k * k
    want = class_of(*req.point)
    if Fraction(d["det_killing"]) != DET_FACTOR * dq ** 5:
        return "exact det %s != 2^45 (%s)^5" % (d["det_killing"], dq)
    if want == "Degenerate":
        return None if sig[2] >= 1 and sum(sig) == 15 else "inertia %s on surface" % (sig,)
    return None if sig == KILLING_INERTIA[want] else "inertia %s for %s" % (sig, want)


def _check_jacobi_exact(req, d):
    return None if d["jacobi_residual"] in (0, "0") else "jacobi %r" % d["jacobi_residual"]


def _check_embed(req, d, requested_exact):
    names = ("s00", "s01", "s10", "s11")
    delivered_exact = isinstance(d["deviation"], str) and all(isinstance(d[n], str) for n in names)
    if delivered_exact and not requested_exact:
        return "float embed returned exact values", False
    point = req.point if delivered_exact else _float_point(req.point)
    want = class_of(*point)
    if d["class"] != want:
        return "embed class %s, want %s" % (d["class"], want), delivered_exact
    eta = tuple(int(t) for t in d["six_metric"].split(","))
    if eta[:4] != (1, -1, -1, -1) or any(e not in (1, -1) for e in eta) or len(eta) != 6:
        return "six_metric %s" % d["six_metric"], delivered_exact
    if (eta.count(1), eta.count(-1)) != SIX_SIGNATURE[want]:
        return "six_metric %s for %s" % (d["six_metric"], want), delivered_exact
    s = [Fraction(d[n]) if delivered_exact else Fraction(float(d[n])) for n in names]
    c4, c5 = (s[0], s[2]), (s[1], s[3])
    gram = (_gram(point, c4, c4) + eta[4], _gram(point, c5, c5) + eta[5], _gram(point, c4, c5))
    if delivered_exact:
        if d["deviation"] != "0" or any(g != 0 for g in gram):
            return "exact embedding deviation %s gram %s" % (d["deviation"], gram), True
        return None, True
    scale = max(1, max(abs(v) for v in point)) * max(1, max(abs(v) for v in s)) ** 2
    if not d["deviation"] <= FLOAT_TOL or any(abs(g) > FLOAT_TOL * scale for g in gram):
        return "embedding deviation %r gram %s" % (d["deviation"], [float(g) for g in gram]), False
    return None, False


def _adjoint_k2(req):
    k, l2, m2 = _float_point(req.point)
    return float(8 * (l2 * m2 - k * k))


def _check_casimir(req, d, kind):
    if d["kind"] != kind or not d["centrality_residual"] < FLOAT_TOL:
        return "casimir %s centrality %r" % (d["kind"], d["centrality_residual"])
    if kind == "K2":
        want = _adjoint_k2(req)
        got = d["scalar_value"]
        if got == "absent" or not _close(got, want, FLOAT_TOL, FLOAT_TOL):
            return "K2 scalar %r, want %r" % (got, want)
    return None


def _check_kgf(req, d):
    want = _adjoint_k2(req)
    got = d["eigenvalue"]
    if got == "absent" or not _close(got, want, FLOAT_TOL, FLOAT_TOL):
        return "kgf eigenvalue %r, want %r" % (got, want)
    if d["satisfied"] != (class_of(*req.point) == "Degenerate"):
        return "kgf satisfied %r" % d["satisfied"]
    return None


def _check_uncertainty(req, d):
    mu2 = abs(float(req.point[2]))
    delta, bound = math.sqrt(mu2) / 2, mu2 / 4
    ok = (d["satisfied"] is True
          and _close(d["delta_p1"], delta, 1e-12) and _close(d["delta_p2"], delta, 1e-12)
          and _close(d["bound"], bound, 1e-12)
          and d["product"] >= d["bound"] * (1 - 1e-12))
    return None if ok else "uncertainty %s for mu2 %r" % (d, mu2)


def _check_dgl(req, d):
    _, m0, mus = (float(v) for v in req.masses)
    want = [m0 + 2 * mus] * 2 + [2 * mus - m0] * 2
    got = d["eigenvalues"]
    ok = len(got) == 4 and all(_close(g, w, 1e-9, 1e-9 * want[0]) for g, w in zip(got, want))
    return None if ok else "dgl %r, want %r" % (got, want)


def _check_mass(req, d):
    m, m0, _ = req.masses
    want = float((m - m0) / 2)
    return None if _close(d["mu_s_abs_MeV"], want, 1e-12) else "mass %r" % d


def check_report(request, results):
    """Check every command of a point report; results are (rc, stdout)."""
    v = Verdict(attempted=len(request.commands))
    for (name, _), (rc, out) in zip(request.commands, results):
        if rc != 0:
            v.fail("%s exited %r" % (name, rc))
            continue
        try:
            d = json.loads(out)
            if name in ("embed", "embed_exact"):
                msg, delivered = _check_embed(request, d, name == "embed_exact")
                if name == "embed_exact":
                    v.props["exact_embed_requested"] += 1
                    v.props["exact_embed_delivered"] += delivered and msg is None
            elif name.startswith("casimir_"):
                msg = _check_casimir(request, d, name.split("_")[1])
            else:
                msg = _REPORT_CHECKS[name](request, d)
        except (ValueError, KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
            msg = "%s output unreadable (%s): %r" % (name, exc, out[:200])
        if msg:
            v.fail(msg)
    cls = class_of(*request.point)
    v.props["points"] += 1
    v.props["on_surface"] += cls == "Degenerate"
    v.props["exact_embedding_possible"] += exact_embedding_possible(*request.point)
    v.props["height_digits=%d" % height_digits(request.point)] += 1
    v.props["class=%s" % cls] += 1
    return v


_REPORT_CHECKS = {
    "classify": _check_classify,
    "killing_exact": _check_killing_exact,
    "jacobi_exact": _check_jacobi_exact,
    "kgf": _check_kgf,
    "uncertainty": _check_uncertainty,
    "dgl": _check_dgl,
    "mass": _check_mass,
}


def check(request, results):
    """Verdict for one request given its (rc, stdout) per command."""
    if request.workload == "point_report":
        return check_report(request, results)
    rc, out = results[0]
    return check_scan(request, rc, out)
