"""The CLI's exit-code contract on arbitrary finite inputs."""

import contextlib
import io
import warnings

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
