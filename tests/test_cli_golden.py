"""Byte-for-byte transcript of the single-point commands.

tests/data/cli_golden.txt holds, for every command below, its argv, exit
code and stdout.  The exact-mode commands use only Python integer and
Fraction arithmetic (and, at points without rational normalisers, the
float fallback of the embedding in plain Python floats); `dgl` diagonalises
a diagonal matrix, whose eigenvalues are its diagonal entries.  So the
transcript does not depend on the machine.

Regenerate with ``PYTHONPATH=src python tests/test_cli_golden.py >
tests/data/cli_golden.txt`` and review the diff.
"""

import contextlib
import io
from pathlib import Path

from phasealg import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
FORMATS = ("json", "csv", "table")

# (kappa, lambda2, mu2): every class, the degenerate surface, the three
# charts of the Gram diagonalisation, and points whose normalisers are
# irrational (the float fallback of `embed --exact`, 4/3, -2, -3 among them)
EXACT_POINTS = (
    ("0", "1", "1"),  # SO(1,5)
    ("1/2", "1", "1"),  # SO(1,5)
    ("0", "4", "9"),  # SO(1,5), rational normalisers
    ("1/3", "1", "1/2"),  # SO(1,5), float fallback
    ("1", "1/2", "1/2"),  # SO(2,4)
    ("1/2", "0", "0"),  # SO(2,4), hyperbolic chart
    ("1", "0", "0"),  # SO(2,4), hyperbolic chart, float fallback
    ("1/2", "1", "0"),  # SO(2,4), lambda^2 chart
    ("2", "-1", "1"),  # SO(2,4)
    ("1/2", "-1", "-1"),  # SO(3,3)
    ("0", "-4", "-1/4"),  # SO(3,3)
    ("4/3", "-2", "-3"),  # SO(3,3), float fallback
    ("1", "1", "1"),  # degenerate
    ("0", "0", "0"),  # degenerate, abelian limit
    ("0", "1", "0"),  # degenerate
    ("-3/2", "-9/4", "-1"),  # degenerate
)

MASS_ARGS = (
    ("--m", "316", "--m0", "2"),
    ("--m", "320", "--m0", "6"),
    ("--m", "1.5", "--m0", "0.5"),
    ("--m", "100", "--m0", "100"),  # exit 1
)

DGL_ARGS = (
    ("--m0", "2", "--mus", "157"),
    ("--m0", "2", "--mus", "157", "--spin-spin"),
    ("--m0", "1.5", "--mus", "1e-3", "--spin-spin"),
    ("--m0", "0", "--mus", "0.25"),
    ("--m0", "-3", "--mus", "157"),  # exit 1
)


def golden_argvs():
    argvs = []
    for command in ("jacobi", "classify", "killing", "embed"):
        for kappa, lambda2, mu2 in EXACT_POINTS:
            for fmt in FORMATS:
                argvs.append((command, "--exact", "--kappa", kappa, "--lambda2", lambda2,
                              "--mu2", mu2, "--format", fmt))
    for command, variants in (("mass", MASS_ARGS), ("dgl", DGL_ARGS)):
        for extra in variants:
            for fmt in FORMATS:
                argvs.append((command, *extra, "--format", fmt))
    return argvs


def transcript(argvs):
    """`$ phasealg <argv>`, `[exit <code>]`, then stdout, for each command."""
    parts = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        parts.append("$ phasealg %s\n[exit %d]\n%s" % (" ".join(argv), code, out.getvalue()))
    return "".join(parts)


def test_single_point_commands_match_golden_transcript():
    assert transcript(golden_argvs()) == GOLDEN.read_text()


def test_golden_transcript_covers_every_command_and_format():
    seen = {(line.split()[2], line.split()[-1]) for line in
            GOLDEN.read_text().splitlines() if line.startswith("$ phasealg ")}
    commands = ("jacobi", "classify", "killing", "embed", "mass", "dgl")
    assert seen == {(c, f) for c in commands for f in FORMATS}


if __name__ == "__main__":
    import sys

    sys.stdout.write(transcript(golden_argvs()))
