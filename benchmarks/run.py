#!/usr/bin/env python3
"""phasealg benchmark: drives ``phasealg.cli.main`` in process.

    python3 benchmarks/run.py --workload scan_float --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread, one closed-loop client: the next
request is sent when the previous one has returned.  Requests come from
``workloads.py`` (seeded) and every output is checked by ``oracle.py``
outside the timed region.  Blocks of requests are completed whole; the run
stops at the first block boundary after ``--seconds`` of timed work (scaled
time in the end-to-end run), and the end-to-end run not before MIN_BLOCKS
blocks.

``--trace 0`` prints the end-to-end metrics; their timings are scaled by a
reference computation timed around every block (``reference.py``).  ``--trace 1`` runs every block
twice, untraced and with every public phasealg function wrapped
(``tracing.py``), and prints the per-layer metrics and the tracing
overhead.  The last stdout line is the result object; the lines before it
describe the machine, the inputs and the tail percentile.  Everything is
also written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "scan_golden.csv"
OUT_DIR = ROOT / ".bench_out"
GOLDEN_ARGV = ("scan", "--kappa", "1:1:1", "--lambda2", "-2:2:5", "--mu2", "-2:2:5",
               "--format", "csv")
SETUP_PROBES = 5
GROUP = 5  # requests between two timings of the reference computation
# At least 6 blocks (150 scans, 42 reports), so on a slow machine the tail
# stays at p90 for the scans and at p75 for point_report.
MIN_BLOCKS = 6
# Coarse on purpose, so small changes in a run's request count do not move
# its tail percentile.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {  # name -> unit
    "points_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units():
    units = {}
    for layer, names in tracing.REPORTED.items():
        for fn in names:
            units["%s.%s.calls" % (layer, fn)] = "count"
            units["%s.%s.self_ms" % (layer, fn)] = "ms"
    for layer in tracing.LAYERS:
        units[layer + ".self_ms"] = "ms"
        units[layer + ".errors"] = "count"
    units["core.structure_constants.builds_per_point"] = "ratio"
    units["classify.embedding_deviation.calls_per_embed"] = "ratio"
    units["classify.embed.exact_ratio"] = "ratio"
    units["trace.points_per_s_traced"] = "1/s"
    units["trace.points_per_s_untraced"] = "1/s"
    units["trace.overhead_pct"] = "%"
    return units


def cap_blas_threads():
    """Cap BLAS/OpenMP pools at nproc through this process's environment,
    before numpy is imported here or in a set-up probe."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))
    return nproc


def load_cli():
    """Import phasealg.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "phasealg" / "cli.py").is_file() or not GOLDEN.is_file():
        raise SystemExit("error: run from a phasealg checkout (src/phasealg and %s needed)"
                         % GOLDEN.relative_to(ROOT))
    sys.path.insert(0, str(SRC))
    from phasealg import cli

    if Path(cli.__file__).resolve().parent != SRC / "phasealg":
        raise SystemExit("error: imported phasealg from %s, not %s" % (cli.__file__, SRC))
    return cli


def machine(nproc):
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    import numpy as np

    with contextlib.redirect_stdout(io.StringIO()):
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "")),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def invoke(cli, argv):
    """One CLI command in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except Exception:  # a traceback escaping main is a failed operation
            rc = "traceback: " + traceback.format_exc(limit=4)
    return rc, out.getvalue()


class Phase:
    """Requests measured under one condition (untraced or traced)."""

    def __init__(self):
        self.latencies_ns = []  # per request, in the order sent
        self.blocks = []  # (requests, points) of each whole block
        self.verdict = oracle.Verdict()
        self.digests = []

    @property
    def timed_ns(self):
        return sum(self.latencies_ns)

    @property
    def points(self):
        return sum(points for _, points in self.blocks)

    def scaled_ns(self, scales=None):
        if scales is None:
            return self.latencies_ns
        return [x * s for x, s in zip(self.latencies_ns, scales)]

    def points_per_s(self, scales=None):
        """Median block throughput: every block is the same balanced mix."""
        lat, rates, start = self.scaled_ns(scales), [], 0
        for requests, points in self.blocks:
            rates.append(points / (sum(lat[start:start + requests]) / 1e9))
            start += requests
        return statistics.median(rates)

    def run_block(self, cli, block, tracer=None, after_group=None):
        """Send a block's requests one after another; check each outside
        the timed region.  after_group runs after every GROUP requests."""
        for count, req in enumerate(block, 1):
            results = []
            if tracer is None:
                t0 = time.perf_counter_ns()
                for _, argv in req.commands:
                    results.append(invoke(cli, argv))
                elapsed = time.perf_counter_ns() - t0
            else:
                tracer.request = req.index
                t0 = time.perf_counter_ns()
                root = tracer.open("bench.request")
                for name, argv in req.commands:
                    span = tracer.open("bench.cmd." + name)
                    results.append(invoke(cli, argv))
                    tracer.close(span)
                tracer.close(root)
                elapsed = time.perf_counter_ns() - t0
            self.latencies_ns.append(elapsed)
            self.verdict.add(oracle.check(req, results))
            self.digests.append(hashlib.sha256(repr(results).encode()).hexdigest())
            if after_group and (count % GROUP == 0 or count == len(block)):
                after_group()
        self.blocks.append((len(block), sum(req.points for req in block)))


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    s = sorted(values)
    pos = p / 100 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it."""
    return next((p for p in TAIL_LADDER
                 if round(n * (100 - p), 6) >= TAIL_MIN_BEYOND * 100), 50.0)


def time_setup(workload, seed):
    """Wall time of a fresh interpreter from start to the first checked
    result of the workload's first request."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe",
            "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit("error: set-up probe did not exit")
    if proc.returncode != 0 or not line.startswith("checked"):
        raise SystemExit("error: set-up probe failed (%r): %s" % (line, err[-2000:]))
    return elapsed


def probe(workload, seed):
    cli = load_cli()
    req = workloads.first_request(workload, seed)
    result = invoke(cli, req.commands[0][1])
    verdict = oracle.check(req, [result])
    print("checked failed=%d" % verdict.failed, flush=True)


def timings(phase, scales=None):
    lat = phase.scaled_ns(scales)
    p_tail = tail_percentile(len(lat))
    tail = percentile(lat, p_tail)
    return {
        "points_per_s": phase.points_per_s(scales),
        "latency_p50_ms": percentile(lat, 50) / 1e6,
        "latency_tail_ms": tail / 1e6,
    }, {
        "requests": len(lat),
        "tail_percentile": p_tail,
        "tail_samples_beyond": sum(1 for x in lat if x > tail),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nproc = cap_blas_threads()
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    cli = load_cli()
    import reference  # imports numpy, so only after the thread cap
    info = {"machine": machine(nproc), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    problems = []

    # warm-up on inputs the timed phase does not use
    golden = invoke(cli, GOLDEN_ARGV)[1].encode() == GOLDEN.read_bytes()
    for _, warm in workloads.first_request(args.workload, args.seed, salt="warm-up").commands:
        invoke(cli, warm)

    blocks = workloads.blocks(args.workload, args.seed)
    if not args.trace:
        # The reference computation is timed after every GROUP requests, and
        # each request's time is scaled by the mean of the timings around it.
        # A set-up probe runs before each block, so the probes sample the
        # whole run.
        phase, refs, scales, setup = Phase(), [reference.seconds()], [], []

        def rescale():
            refs.append(reference.seconds())
            scale = 2 * reference.NOMINAL_S / (refs[-2] + refs[-1])
            scales.extend([scale] * (len(phase.latencies_ns) - len(scales)))

        # the run ends after --seconds of scaled time, so it does the same
        # work, and has the same tail percentile, whatever the machine's speed
        while (sum(phase.scaled_ns(scales)) < args.seconds * 1e9
               or len(phase.blocks) < MIN_BLOCKS):
            setup.append(time_setup(args.workload, args.seed))
            phase.run_block(cli, next(blocks), after_group=rescale)
        while len(setup) < SETUP_PROBES:
            setup.append(time_setup(args.workload, args.seed))
        metrics, detail = timings(phase, scales)
        verdict = phase.verdict
        metrics.update(
            success_rate=(verdict.attempted - verdict.failed) / verdict.attempted,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            setup_s=statistics.median(setup))
        info.update(detail, error_rate=verdict.failed / verdict.attempted,
                    wall_clock=timings(phase)[0], reference_s=refs, setup_probe_s=setup)
        identical = True
    else:
        # every block runs untraced and traced back to back, in alternating
        # order, so the overhead compares the same inputs on the same machine state
        untraced, traced, tracer = Phase(), Phase(), tracing.Tracer()
        for number, block in enumerate(blocks):
            for with_trace in (False, True) if number % 2 == 0 else (True, False):
                if with_trace:
                    restore = tracing.install(tracer)
                    try:
                        traced.run_block(cli, block, tracer)
                    finally:
                        restore()
                else:
                    untraced.run_block(cli, block)
            if untraced.timed_ns + traced.timed_ns >= args.seconds * 1e9:
                break
        identical = untraced.digests == traced.digests
        info["traced_requests_compared"] = len(traced.digests)
        metrics = tracing.layer_metrics(tracer, len(traced.latencies_ns), traced.points)
        props = traced.verdict.props
        requested = props["exact_embed_requested"]
        metrics["classify.embed.exact_ratio"] = (
            props["exact_embed_delivered"] / requested if requested else 0.0)
        metrics["trace.points_per_s_traced"] = traced.points_per_s()
        metrics["trace.points_per_s_untraced"] = untraced.points_per_s()
        metrics["trace.overhead_pct"] = (
            metrics["trace.points_per_s_untraced"] / metrics["trace.points_per_s_traced"] - 1) * 100
        verdict = oracle.Verdict()
        verdict.add(untraced.verdict)
        verdict.add(traced.verdict)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / ("spans-%s-seed%d.csv" % (args.workload, args.seed)))
        if not identical:
            problems.append("traced outputs differ from untraced outputs")

    if not golden:
        problems.append("golden scan CSV differs from %s" % GOLDEN.relative_to(ROOT))
    unexplained = verdict.failed - verdict.known
    if unexplained:
        problems.append("%d failures beyond the documented small-magnitude defect" % unexplained)
    correct = golden and identical and not unexplained
    props = dict(sorted(verdict.props.items()))
    # grid sizes as shares of requests, the other input properties of points
    info["input_shares"] = {
        k: c / props["requests" if k.startswith("grid_points") else "points"]
        for k, c in props.items()
        if k not in ("points", "requests") and not k.startswith("exact_embed_")}
    info.update(correct=correct, attempted=verdict.attempted, failed=verdict.failed,
                known_defect_failures=verdict.known, problems=problems + verdict.problems,
                known_defect_examples=verdict.known_examples,
                inputs=props, metrics=metrics)

    units = END_TO_END if not args.trace else per_layer_units()
    result = {
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT_DIR / name).write_text(json.dumps(info, indent=1, default=str) + "\n")
    print("machine: " + json.dumps(info["machine"]))
    print("inputs: " + json.dumps(info["input_shares"]))
    print("detail: " + json.dumps({k: info[k] for k in info
                                   if k not in ("machine", "inputs", "input_shares", "metrics")},
                                  default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
