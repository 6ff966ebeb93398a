"""polmax benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (one closed-loop client, no extra threads):

  cli-cold       fresh ``python -m polmax`` per operation, cycling through
                 the README command lines in a seeded order
  qp-bound       solve(build_problem(nbar, D)) in process, D in 100..400
                 and nbar = D - u, so the truncation binds
  catalog-sweep  in process: one ``polmax sweep`` grid point at a seeded
                 nbar in [0.01, 1e3] plus series-vs-closed-form checks

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, untraced: the median and p90 operation time and the
throughput of the timed loop, the median set-up time of fresh
interpreters, and the peak resident set.  With
``--trace 1`` it reports the per-layer metrics, from spans recorded around
the calls into each module.

Every operation's output is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is nonzero when any check failed.  A record
of the run (seed, machine, versions, the first failures) and the spans of a
traced run are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from importlib import metadata
from pathlib import Path

import cli_cases
from tracing import Tracer, group, p50

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli-cold", "qp-bound", "catalog-sweep")
#: Fresh interpreters timed for setup_s; the reported value is their median.
SETUP_REPEATS = 3
#: Fresh interpreters per start-up probe, and repeats per in-process CLI call.
PROBE_REPEATS = 5
#: Operations of the fixed traced pass whose counts must repeat exactly.
TRACED_OPS = {"cli-cold": 0, "qp-bound": 32, "catalog-sweep": 1024}

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class Failures:
    """Operations attempted and the problems found, by operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(f"{label}: " + "; ".join(problems[:5]))

    @property
    def frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def call_checked(op, x) -> list:
    """Run one operation; an exception counts as a failed check."""
    try:
        return op(x)
    except Exception as exc:  # any raise is a failed operation, recorded
        return [f"raised {exc!r}"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build_workload(name: str, seed: int, workdir: Path, tracer=None):
    """Return (op, inputs, state) for a workload.

    ``op(x)`` runs one operation on input ``x`` and returns its problems;
    ``inputs`` is the endless seeded input sequence; ``state`` holds what
    the operations accumulate (peak child RSS for cli-cold, a ``Tally``
    for the in-process workloads).
    """
    rng = random.Random(seed)
    if name == "cli-cold":
        env = cli_cases.child_env(SRC)
        rss_kib: list[int] = []

        def op(case):
            _, rss, problems = cli_cases.run_case(case, workdir, env)
            rss_kib.append(rss)
            return problems

        if tracer is not None:
            op = tracer.wrap("cli.process", op)
        return op, cli_cases.case_order(rng), rss_kib

    import library  # imports polmax, so only once main() has put src/ on the path

    api, tally = library.Api(tracer), library.Tally()
    if name == "qp-bound":
        body, inputs = library.qp_bound_op, library.qp_bound_inputs(rng)
    elif name == "catalog-sweep":
        body, inputs = library.catalog_op, library.catalog_inputs(rng)
    else:
        raise ValueError(f"unknown workload {name!r}")

    def op(x):
        return body(api, tally, x)

    if tracer is not None:
        op = tracer.wrap(f"op.{name}", op)
    return op, inputs, tally


def setup_times(name: str, seed: int) -> list[float]:
    """Wall seconds of fresh interpreters that import polmax, build the
    seeded inputs and finish one warm-up operation (after one untimed
    interpreter that fills the bytecode caches)."""
    workdir = fresh_dir(OUT / "setup")
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), str(workdir)]
    env = cli_cases.child_env(SRC)
    times = []
    for i in range(SETUP_REPEATS + 1):
        elapsed, code, _, text = cli_cases.spawn(argv, workdir, env)
        if code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}: {text[-500:]}")
        if i:
            times.append(elapsed)
    return times


def timed_loop(op, inputs, seconds: float, failures: Failures):
    """Closed loop for ``seconds``.  Returns the operation times in seconds,
    in a compact array so that the bookkeeping adds little to the peak
    resident set, and the timed wall time."""
    durations = array("d")
    start = time.perf_counter()
    while True:
        x = next(inputs)
        t0 = time.perf_counter()
        problems = call_checked(op, x)
        durations.append(time.perf_counter() - t0)
        failures.add(f"op {len(durations) - 1}", problems)
        if time.perf_counter() - start >= seconds:
            return durations, time.perf_counter() - start


def end_to_end(name: str, seed: int, seconds: float, failures: Failures):
    """End-to-end metrics, untraced, and details for the run record."""
    setup = setup_times(name, seed)
    op, inputs, state = build_workload(name, seed, fresh_dir(OUT / "work"))
    failures.add("warm-up", call_checked(op, next(inputs)))
    if name == "cli-cold":
        state.clear()  # the warm-up child does not count towards peak RSS
    failed_before = failures.failed
    durations, wall = timed_loop(op, inputs, seconds, failures)
    if name == "cli-cold":
        rss_kib = max(state)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ms = [d * 1e3 for d in durations]
    completed = len(ms) - (failures.failed - failed_before)
    metrics = {
        "op_p50_ms": statistics.median(ms),
        # cli-cold runs hold fewer than 100 operations, so fewer than ten
        # samples lie beyond its p90; the record gives the sample count
        "op_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "throughput_ops_s": completed / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    return metrics, {"op_samples": len(ms), "setup_times_s": setup}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def cli_main_probe(tracer, workdir: Path, failures: Failures) -> tuple[dict, int]:
    """In-process ``polmax.cli.main`` for every CLI case with ``--out`` to a
    file: per-command median ms (cases of one command summed) over
    PROBE_REPEATS passes after one warm pass, and the bytes written by the
    warm pass."""
    from polmax import cli

    mains = {c: tracer.wrap(f"cli.main.{c}", cli.main) for c in cli_cases.COMMANDS}
    per_pass, output_bytes = [], 0
    old_cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for rep in range(PROBE_REPEATS + 1):
            totals = dict.fromkeys(cli_cases.COMMANDS, 0.0)
            for case in cli_cases.CASES:
                argv = [*case.args, "--out", "out.txt"]
                if os.path.exists("out.txt"):
                    os.remove("out.txt")
                start = time.perf_counter()
                with contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = mains[case.command](argv)
                    except SystemExit as exc:
                        code = exc.code
                totals[case.command] += (time.perf_counter() - start) * 1e3
                text = Path("out.txt").read_text(encoding="utf-8") if os.path.exists("out.txt") else ""
                failures.add(f"cli.main {case.args}", cli_cases.judge(case, text, code, "."))
                if rep == 0:
                    output_bytes += len(text.encode())
                    if case.command == "figures":
                        output_bytes += sum(
                            os.path.getsize(os.path.join(cli_cases.FIG_DIR, f))
                            for f in cli_cases.FIG_ROWS
                        )
            if rep:
                per_pass.append(totals)
    finally:
        os.chdir(old_cwd)
    medians = {c: statistics.median(p[c] for p in per_pass) for c in cli_cases.COMMANDS}
    return medians, output_bytes


def traced(name: str, seed: int, seconds: float, failures: Failures):
    """Per-layer metrics and the tracers holding the spans they came from."""
    import library

    workdir = fresh_dir(OUT / "work")
    probe_tracer, fixed_tracer, paired_tracer = Tracer(), Tracer(), Tracer()

    startup = cli_cases.startup_probes(workdir, cli_cases.child_env(SRC), PROBE_REPEATS)
    cli_ms, output_bytes = cli_main_probe(probe_tracer, workdir, failures)
    curve_ms, curve_residual = library.solve_curve(probe_tracer)

    # fixed pass: the first TRACED_OPS[name] inputs, every call traced
    op, inputs, state = build_workload(name, seed, workdir, fixed_tracer)
    tally = state if isinstance(state, library.Tally) else library.Tally()
    for i in range(TRACED_OPS[name]):
        fixed_tracer.op = i
        failures.add(f"traced op {i}", call_checked(op, next(inputs)))

    # paired pass: each input once untraced and once traced, alternating
    # which goes first, for the tracing overhead
    plain_op, plain_inputs, _ = build_workload(name, seed, workdir)
    traced_op, _, _ = build_workload(name, seed, workdir, paired_tracer)
    plain, with_trace = [], []
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        x = next(plain_inputs)
        paired_tracer.op = i
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            problems = call_checked(traced_op if use_trace else plain_op, x)
            (with_trace if use_trace else plain).append(time.perf_counter() - t0)
            failures.add(f"paired op {i}", problems)
        i += 1

    s = fixed_tracer.summary()

    def calls(*names):
        return group(s, names)["calls"]

    def self_ms(*names):
        return group(s, names)["self_ms"]

    d = "distributions."
    dim_for_tail = (d + "poisson_dim_for_tail", d + "thermal_dim_for_tail", d + "twin_beam_dim_for_tail")
    closed_forms = (
        "degree.degree_optimal_closed_form",
        "degree.degree_thermal_series",
        "degree.degree_twin_beam_exact",
        "degree.degree_from_solution",
    )
    m = {
        "trace.overhead_frac": (statistics.median(t / p for t, p in zip(with_trace, plain)) - 1.0, "ratio"),
        "cli.interpreter_ms": (startup["interpreter_ms"], "ms"),
        "cli.import.numpy_ms": (startup["numpy"], "ms"),
        "cli.import.scipy_special_ms": (startup["scipy"], "ms"),
        "cli.import.polmax_self_ms": (startup["polmax"], "ms"),
        **{f"cli.main.{c}_ms": (v, "ms") for c, v in cli_ms.items()},
        "cli.output_bytes": (output_bytes, "bytes"),
    }
    for fn in ("build_problem", "solve", "verify_kkt"):
        m[f"qpsolve.{fn}.calls"] = (calls(f"qpsolve.{fn}"), "count")
        m[f"qpsolve.{fn}.self_ms"] = (self_ms(f"qpsolve.{fn}"), "ms")
    m["qpsolve.solve.p50_us"] = (p50(group(s, ["qpsolve.solve"])["durations_ms"]) * 1e3, "us")
    m["qpsolve.iterations"] = (tally.iterations, "count")
    m["qpsolve.iterations_per_solve"] = (tally.iterations / tally.solves if tally.solves else 0.0, "count")
    m["qpsolve.max_kkt_residual"] = (tally.max_kkt_residual, "1")
    # no audit run means no audit failed
    m["qpsolve.kkt_pass_ratio"] = (tally.kkt_passed / tally.kkt_audits if tally.kkt_audits else 1.0, "ratio")
    m.update({k: (v, "ms") for k, v in curve_ms.items()})
    m["qpsolve.curve.max_kkt_residual"] = (curve_residual, "1")
    m[d + "dim_for_tail.calls"] = (calls(*dim_for_tail), "count")
    m[d + "dim_for_tail.self_ms"] = (self_ms(*dim_for_tail), "ms")
    for short, fn in (("poisson", "poisson_distribution"), ("thermal", "thermal_distribution"),
                      ("twin", "twin_beam_distribution"), ("mandel_q", "mandel_q")):
        m[f"{d}{short}.self_ms"] = (self_ms(d + fn), "ms")
    m[d + "elements"] = (tally.elements, "count")
    m[d + "bytes_computed"] = (8 * tally.elements, "bytes")
    m["degree.hs_degree.calls"] = (calls("degree.hs_degree"), "count")
    m["degree.hs_degree.self_ms"] = (self_ms("degree.hs_degree"), "ms")
    m["degree.closed_forms.self_ms"] = (self_ms(*closed_forms), "ms")
    m["degree.coherent_closed_form.self_ms"] = (self_ms("degree.degree_coherent_closed_form"), "ms")
    m["degree.max_series_vs_closed"] = (tally.max_series_vs_closed, "1")
    m["failed_frac"] = (failures.frac, "ratio")
    tracers = {"probe": probe_tracer, "fixed": fixed_tracer, "paired": paired_tracer}
    return m, tracers


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polmax" / "__init__.py").is_file():
        print(f"benchmark: no polmax sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)

    failures = Failures()
    started = time.time()
    tracers = {}
    if args.trace:
        raw, tracers = traced(args.workload, args.seed, args.seconds, failures)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        extra = {}
    else:
        raw, extra = end_to_end(args.workload, args.seed, args.seconds, failures)
        metrics = {k: {"value": raw[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    if tracers:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        with open(OUT / "traces" / f"{tag}.jsonl", "w", encoding="utf-8") as fh:
            for phase, tracer in tracers.items():
                tracer.write(fh, phase)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "machine": machine(),
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures": failures.messages,
        "metrics": metrics,
        **extra,
    }
    with open(OUT / "records" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for message in failures.messages:
        print(f"benchmark: FAILED {message}", file=sys.stderr)
    result = {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failures.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
