"""Command-line front end: single-point computations and parameter scans."""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import casimir, pheno, spinor
from .classify import (
    adjoint_representation,
    classify as classify_point,
    inertia as form_inertia,
    killing_det,
    killing_form,
    pseudo_orthogonal_embedding,
    semisimplicity_indicator,
)
from .core import (
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

SCAN_COLUMNS = (
    "kappa",
    "lambda_sq",
    "mu_sq",
    "class",
    "indicator",
    "det_killing",
    "sig_pos",
    "sig_neg",
    "sig_zero",
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept values like "-2:2:5" or "-0.5" after an option flag
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _parse_number(text, exact):
    if exact:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise InvalidInputError("cannot parse %r as an exact rational" % text)
    try:
        return float(text)
    except ValueError:
        raise InvalidInputError("cannot parse %r as a number" % text)


def _parse_grid(text, exact):
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInputError("grid must be start:stop:steps, got %r" % text)
    start = _parse_number(parts[0], exact)
    stop = _parse_number(parts[1], exact)
    try:
        steps = int(parts[2])
    except ValueError:
        raise InvalidInputError("grid steps must be an integer, got %r" % parts[2])
    if steps < 1:
        raise InvalidInputError("grid steps must be >= 1")
    if start > stop:
        raise InvalidInputError("grid start must not exceed stop")
    if steps == 1:
        return [start]
    span = stop - start
    return [start + span * k / (steps - 1) for k in range(steps)]


def _fmt(value):
    """Deterministic plain-text rendering of a scalar."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        if value.imag == 0:
            value = value.real
        else:
            return repr(value)
    if isinstance(value, float):
        # inf and nan fail the magnitude test and print as inf, -inf, nan
        if abs(value) < 1e15 and value == int(value):
            return str(int(value))
        return repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        if value.imag == 0:
            return value.real
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _emit(records, fmt, out, columns=None, single=None):
    """Render records (list of dicts) deterministically to a stream."""
    if fmt == "json":
        if single is not None:
            payload = _jsonable(single)
        else:
            payload = [_jsonable(r) for r in records]
        out.write(json.dumps(payload) + "\n")
    elif fmt == "csv":
        if columns is None:
            columns = list(records[0]) if records else []
        out.write(",".join(columns) + "\n")
        for r in records:
            out.write(",".join(_fmt(r[c]) for c in columns) + "\n")
    else:  # table
        for r in records:
            for k, v in r.items():
                out.write("%s = %s\n" % (k, _fmt(v)))


def _params_from_args(args):
    if getattr(args, "params", None):
        with open(args.params) as fh:
            obj = json.load(fh)
        try:
            vals = [obj["kappa"], obj["lambda_sq"], obj["mu_sq"]]
        except (KeyError, TypeError):
            raise InvalidInputError(
                "params file must be an object with kappa, lambda_sq, mu_sq"
            )
        if args.exact:
            vals = [Fraction(str(v)) for v in vals]
        return ParameterSet(*vals)
    if args.M2 is not None or args.L2 is not None or args.H2 is not None:
        if None in (args.M2, args.L2, args.H2):
            raise InvalidInputError("units mode needs all of --M2, --L2, --H2")
        f = args.f if args.f is not None else (Fraction(1) if args.exact else 1.0)
        return convert_units(UnitsParams(f, args.M2, args.L2, args.H2))
    if None in (args.kappa, args.lambda2, args.mu2):
        raise InvalidInputError(
            "need --kappa/--lambda2/--mu2 (or --M2/--L2/--H2, or --params)"
        )
    return ParameterSet(args.kappa, args.lambda2, args.mu2)


def _point_record(params, tol):
    t = structure_constants(params)
    K = killing_form(t)
    sig = form_inertia(K, tol=tol)
    return {
        "class": str(classify_point(params, tol=tol)),
        "indicator": semisimplicity_indicator(params),
        "kappa": params.kappa,
        "lambda_sq": params.lambda_sq,
        "mu_sq": params.mu_sq,
        "det_killing": killing_det(K),
        "sig_pos": sig.n_pos,
        "sig_neg": sig.n_neg,
        "sig_zero": sig.n_zero,
    }


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once; parse_args leaves it unchanged."""
    parser = _Parser(prog="phasealg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, params_flags=True):
        if params_flags:
            p.add_argument("--kappa", default=None)
            p.add_argument("--lambda2", default=None)
            p.add_argument("--mu2", default=None)
            p.add_argument("--f", default=None)
            p.add_argument("--M2", default=None)
            p.add_argument("--L2", default=None)
            p.add_argument("--H2", default=None)
            p.add_argument("--params", default=None, help="JSON parameter file")
        p.add_argument("--exact", action="store_true", help="exact rational mode")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--output", default=None)
        return p

    for name in ("jacobi", "classify", "killing", "embed", "casimir", "kgf"):
        add_common(sub.add_parser(name))
    sub.choices["casimir"].add_argument("--kind", choices=("K1", "K2", "K3"), default="K2")

    p_unc = add_common(sub.add_parser("uncertainty"), params_flags=False)
    p_unc.add_argument("--mu2", required=True)

    p_dgl = add_common(sub.add_parser("dgl"), params_flags=False)
    p_dgl.add_argument("--m0", required=True)
    p_dgl.add_argument("--mus", required=True)
    p_dgl.add_argument("--spin-spin", action="store_true")

    p_mass = add_common(sub.add_parser("mass"), params_flags=False)
    p_mass.add_argument("--m", default=None)
    p_mass.add_argument("--m0", default=None)
    p_mass.add_argument("--mus", default=None)
    p_mass.add_argument("--quarks", default=None, help="JSON quark table")

    p_scan = add_common(sub.add_parser("scan"), params_flags=False)
    p_scan.add_argument("--kappa", required=True, metavar="START:STOP:STEPS")
    p_scan.add_argument("--lambda2", required=True, metavar="START:STOP:STEPS")
    p_scan.add_argument("--mu2", required=True, metavar="START:STOP:STEPS")
    p_scan.add_argument("--threads", type=int, default=1,
                        help="has no effect; scans run in one thread")
    return parser


def _number_args(args, names):
    for name in names:
        val = getattr(args, name, None)
        if isinstance(val, str):
            setattr(args, name, _parse_number(val, args.exact))


def _cmd_jacobi(args, out):
    params = _params_from_args(args)
    res = jacobi_residual(structure_constants(params))
    _emit([{"jacobi_residual": res}], args.format, out, single={"jacobi_residual": _jsonable(res)})


def _cmd_classify(args, out):
    rec = _point_record(_params_from_args(args), args.tol)
    _emit([rec], args.format, out, columns=list(rec), single=rec)


def _cmd_killing(args, out):
    rec = _point_record(_params_from_args(args), args.tol)
    rec = {c: rec[c] for c in ("det_killing", "sig_pos", "sig_neg", "sig_zero")}
    _emit([rec], args.format, out, columns=list(rec), single=rec)


def _cmd_embed(args, out):
    params = _params_from_args(args)
    emb = pseudo_orthogonal_embedding(params, tol=args.tol)
    rec = {
        "class": str(classify_point(params, tol=args.tol)),
        "six_metric": ",".join(_fmt(e) for e in emb.six_metric),
        "deviation": emb.deviation,
        "s00": emb.s_matrix[0][0],
        "s01": emb.s_matrix[0][1],
        "s10": emb.s_matrix[1][0],
        "s11": emb.s_matrix[1][1],
    }
    _emit([rec], args.format, out, columns=list(rec), single=rec)


def _cmd_casimir(args, out):
    params = _params_from_args(args).as_floats()
    rep = adjoint_representation(structure_constants(params))
    if args.kind == "K2":
        rep_report = casimir.casimir_k2(rep, params, tol=args.tol)
    else:
        emb = pseudo_orthogonal_embedding(params, tol=args.tol)
        rep_report = casimir.casimir_eps(rep, emb, args.kind, tol=args.tol)
    rec = {
        "kind": args.kind,
        "centrality_residual": rep_report.centrality_residual,
        "scalar_value": rep_report.scalar_value
        if rep_report.scalar_value is not None
        else "absent",
    }
    _emit([rec], args.format, out, columns=list(rec), single=rec)


def _cmd_kgf(args, out):
    params = _params_from_args(args).as_floats()
    rep = adjoint_representation(structure_constants(params))
    eig, ok = casimir.kgf_check(rep, params, tol=args.tol)
    rec = {
        "eigenvalue": eig if eig is not None else "absent",
        "satisfied": ok,
    }
    _emit([rec], args.format, out, columns=list(rec), single=rec)


def _cmd_uncertainty(args, out):
    mu2 = float(args.mu2)
    if mu2 <= 0:
        raise UnsupportedDomainError(
            "the Robertson demonstration needs mu2 > 0 (Hermitian momenta)"
        )
    rep = spinor.spinor_momentum_rep(mu2)
    report = spinor.robertson(rep, spinor.spin_up_state(), P(1), P(2), tol=args.tol)
    rec = {
        "delta_p1": report.delta_A,
        "delta_p2": report.delta_B,
        "bound": report.bound,
        "product": report.delta_A * report.delta_B,
        "satisfied": report.satisfied,
    }
    _emit([rec], args.format, out, columns=list(rec), single=rec)


def _cmd_dgl(args, out):
    opts = pheno.DGLOptions(float(args.mus), include_spin_spin=args.spin_spin)
    vals = pheno.dgl_spectrum(float(args.m0), opts)
    rec = {"eigenvalues": ",".join(_fmt(v) for v in vals)}
    _emit([rec], args.format, out, columns=list(rec),
          single={"eigenvalues": [_jsonable(v) for v in vals]})


def _cmd_mass(args, out):
    if args.quarks:
        if args.mus is None:
            raise InvalidInputError("--quarks requires --mus")
        with open(args.quarks) as fh:
            table = pheno.load_quark_table(json.load(fh))
        mu_abs = float(args.mus)
        records = []
        for flavor in sorted(table):
            records.append(
                {
                    "flavor": flavor,
                    "constituent_MeV": table[flavor],
                    "current_MeV": pheno.current_mass(table[flavor], mu_abs),
                }
            )
        _emit(records, args.format, out, columns=["flavor", "constituent_MeV", "current_MeV"])
        return
    if args.m is None or args.m0 is None:
        raise InvalidInputError("mass needs --m and --m0 (or --quarks with --mus)")
    mu_abs = pheno.mu_s_from_masses(pheno.MassInputs(float(args.m), float(args.m0)))
    if args.format == "table":
        out.write("|mu_s| = %s MeV\n" % _fmt(mu_abs))
    else:
        rec = {"mu_s_abs_MeV": mu_abs}
        _emit([rec], args.format, out, columns=list(rec), single=rec)


def _cmd_scan(args, out):
    grids = [
        _parse_grid(args.kappa, args.exact),
        _parse_grid(args.lambda2, args.exact),
        _parse_grid(args.mu2, args.exact),
    ]
    points = [
        ParameterSet(k, l2, m2)
        for k in grids[0]
        for l2 in grids[1]
        for m2 in grids[2]
    ]
    records = [{c: rec[c] for c in SCAN_COLUMNS}
               for rec in (_point_record(p, args.tol) for p in points)]
    _emit(records, args.format, out, columns=list(SCAN_COLUMNS))


_COMMANDS = {
    "jacobi": _cmd_jacobi,
    "classify": _cmd_classify,
    "killing": _cmd_killing,
    "embed": _cmd_embed,
    "casimir": _cmd_casimir,
    "kgf": _cmd_kgf,
    "uncertainty": _cmd_uncertainty,
    "dgl": _cmd_dgl,
    "mass": _cmd_mass,
    "scan": _cmd_scan,
}


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    _number_args(
        args,
        ("kappa", "lambda2", "mu2", "f", "M2", "L2", "H2")
        if args.command not in ("scan", "uncertainty", "dgl", "mass")
        else (),
    )
    if args.output:
        with open(args.output, "w", newline="") as fh:
            _COMMANDS[args.command](args, fh)
    else:
        _COMMANDS[args.command](args, sys.stdout)
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (InvalidInputError, UnsupportedDomainError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except InternalConsistencyError as exc:
        sys.stderr.write("internal consistency failure: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
