"""The CLI's exit-code contract on arbitrary finite inputs."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from phasealg import cli

POINT_COMMANDS = ("jacobi", "classify", "killing", "embed", "casimir", "kgf")

# every finite float, subnormals and both zeros included, as the user types it
finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def single_point_argv(draw):
    command = draw(st.sampled_from(POINT_COMMANDS + ("uncertainty", "dgl", "mass")))
    if command in POINT_COMMANDS:
        argv = [command, "--kappa", draw(finite), "--lambda2", draw(finite),
                "--mu2", draw(finite)]
        if command == "casimir":
            argv += ["--kind", draw(st.sampled_from(("K1", "K2", "K3")))]
    elif command == "uncertainty":
        argv = [command, "--mu2", draw(finite)]
    elif command == "dgl":
        argv = [command, "--m0", draw(finite), "--mus", draw(finite)]
        argv += draw(st.sampled_from(([], ["--spin-spin"])))
    else:
        argv = [command, "--m", draw(finite), "--m0", draw(finite)]
    return argv + ["--format", draw(st.sampled_from(("json", "csv", "table")))]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(single_point_argv())
def test_every_input_ends_in_an_exit_code_and_one_error_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1
    assert all(line.startswith(("error: ", "internal consistency failure: ")) for line in lines)


def _classify(k, l2, m2):
    """(exit code, class and inertia) of `classify` at one float point."""
    out = io.StringIO()
    argv = ["classify", "--kappa", repr(k), "--lambda2", repr(l2), "--mu2", repr(m2),
            "--format", "json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    rec = json.loads(out.getvalue()) if code == 0 else {}
    return code, tuple(rec.get(c) for c in ("class", "sig_pos", "sig_neg", "sig_zero"))


@st.composite
def scaled_point(draw):
    """(kappa, lambda^2, mu^2), off, near or on the degenerate surface.

    Magnitudes cluster around 2^e, |e| <= 150, or spread up to 2^100 from
    it, so 4^k times them stays clear of underflow and overflow for
    |k| <= 60."""
    e = draw(st.integers(-150, 150))

    def value():
        if draw(st.integers(0, 7)) == 0:
            return 0.0
        m = draw(st.floats(0.5, 1.0, exclude_max=True)) * draw(st.sampled_from((1, -1)))
        return math.ldexp(m, e + draw(st.one_of(st.integers(-4, 4), st.integers(-100, 100))))
    l2, m2 = value(), value()
    if l2 * m2 > 0 and draw(st.integers(0, 3)):
        # on lambda^2 mu^2 = kappa^2 up to rounding, or a few ulps off it
        ulps = draw(st.sampled_from((0, 1, 2, 3, 5, 8, 16)))
        k = math.sqrt(l2 * m2) * (1 + ulps * draw(st.sampled_from((1, -1))) * 2.0 ** -52)
        k *= draw(st.sampled_from((1, -1)))
    else:
        k = value()
    return k, l2, m2


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(scaled_point(), st.integers(-60, 60))
def test_class_and_inertia_are_scale_covariant(point, k):
    """kappa -> 4^k kappa, lambda^2 -> 4^k lambda^2, mu^2 -> 4^k mu^2 is an
    automorphism of the algebra, and so is kappa -> -kappa: the class, the
    inertia and the exit code are the same at all three points, and the
    eigenvalue check never fails on them."""
    kappa, l2, m2 = point
    base = _classify(kappa, l2, m2)
    assert base[0] == 0
    assert _classify(*(math.ldexp(v, 2 * k) for v in point)) == base
    assert _classify(-kappa, l2, m2) == base


@pytest.mark.parametrize("point,want", [
    # degenerate by an absolute bound on |det Q|, semisimple by its sign
    ((1115991987662409 / 2 ** 58, 362539770003325 / 2 ** 58, 858836448939553 / 2 ** 56),
     ("SO(1,5)", 5, 10, 0)),
    ((1e-5, 2e-5, 1e-5), ("SO(1,5)", 5, 10, 0)),
    # |det Q| is 2 eps of the scale: degenerate, and K's I-I entry carries
    # 8 eps of the scale in rounding, which the eigenvalue check must allow
    ((-16384.0, 21845.333333333343, 12288.0),
     ("Degenerate(det Q = 0 (lambda^2 mu^2 = kappa^2))", 4, 6, 5)),
])
def test_points_once_misjudged_by_absolute_bounds(point, want):
    assert _classify(*point) == (0, want)


@pytest.mark.parametrize("argv", [
    ["embed"], ["casimir", "--kind", "K1"], ["casimir", "--kind", "K3"],
])
def test_ill_conditioned_embedding_is_not_a_build_defect(argv):
    """2e-15 of the degenerate surface, SO(2,4): the float embedding cannot
    meet tol there, which is a domain limit (exit 1), not exit 2."""
    argv = argv + ["--kappa", "0.007235151356978233", "--lambda2", "1.0",
                   "--mu2", "5.234741515838386e-05"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 1
    assert err.getvalue().startswith("error: the float embedding is too ill-conditioned")
