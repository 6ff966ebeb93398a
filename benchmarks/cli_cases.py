"""The cli-cold workload: README command lines, each run in a fresh
``python -m polmax`` process and checked against independent identities.

Nothing here imports polmax.  Every expected value is derived from the
physics (the degree definition, the optimal parabola and its moments) with
the standard library, so a check never compares the program with itself.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

FIG_DIR = "figs"
#: Data rows of the three figure tables: 5 means x 5 photon numbers,
#: 45 means, and 9 means x 26 photon numbers.
FIG_ROWS = {"fig1.csv": 25, "fig2.csv": 45, "fig3.csv": 234}
TOL = 1e-12
KKT_TOL = 1e-10


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------


def degree_by_definition(pmf: Callable[[int], float], limit: int) -> float:
    """1 - sum_N p_N^2/(N+1) for a pure state, summed directly."""
    return 1.0 - math.fsum(pmf(n) ** 2 / (n + 1) for n in range(limit))


@functools.cache
def coherent_degree(nbar: float) -> float:
    if nbar == 0.0:
        return 0.0
    limit = int(nbar + 40 * math.sqrt(nbar) + 60)
    return degree_by_definition(
        lambda n: math.exp(-nbar + n * math.log(nbar) - math.lgamma(n + 1)), limit
    )


@functools.cache
def thermal_degree(nbar: float) -> float:
    if nbar == 0.0:
        return 0.0
    mu = nbar / (nbar + 1.0)
    limit = int(math.log(1e-20) / math.log(mu)) + 1
    return degree_by_definition(lambda n: (1.0 - mu) * mu**n, limit)


def twin_degree_at_mean(nbar: float) -> float:
    """1 - 2 log(nbar+1)/(nbar (nbar+2)), the pairwise sum at mean nbar."""
    if nbar == 0.0:
        return 0.0
    return 1.0 - 2.0 * math.log1p(nbar) / (nbar * (nbar + 2.0))


def optimal_degree(nbar: float) -> float:
    return 1.0 - 3.0 / ((2.0 * nbar + 1.0) * (2.0 * nbar + 3.0))


def parabola(nbar: float, n: int) -> float:
    """Optimal p_N, exact when 2 nbar is an integer."""
    top = (nbar + 1.0) ** 2 - (n - nbar) ** 2
    return max(top, 0.0) * 3.0 / ((2.0 * nbar + 1.0) * (nbar + 1.0) * (2.0 * nbar + 3.0))


# ---------------------------------------------------------------------------
# checkers: (output text, working directory) -> list of problems
# ---------------------------------------------------------------------------


def _close(label: str, got, want: float, tol: float, problems: list) -> None:
    if got is None or not abs(float(got) - want) <= tol:
        problems.append(f"{label}: got {got!r}, want {want!r} within {tol:g}")


def _envelope(text: str, command: str) -> dict:
    doc = json.loads(text)
    if doc.get("schema_version") != "1" or doc.get("command") != command:
        raise ValueError(f"unexpected envelope header for {command}")
    return doc["data"]


def expect_degree(want: float) -> Callable:
    def check(text, workdir):
        problems: list = []
        _close("degree value", _envelope(text, "degree")["value"], want, TOL, problems)
        return problems

    return check


def check_optimal_qp(text, workdir):
    problems: list = []
    data = _envelope(text, "optimal")
    probs = data["dist"]["probs"]
    if len(probs) != 9:  # default dim ceil(2 nbar) + 4 = 8
        problems.append(f"expected 9 probabilities, got {len(probs)}")
    for n, p in enumerate(probs):
        _close(f"p[{n}]", p, parabola(2.0, n), TOL, problems)
    _close("objective", data["objective"], 1.0 - optimal_degree(2.0), TOL, problems)
    for name, value in data["kkt_residuals"].items():
        if not value <= KKT_TOL:
            problems.append(f"kkt residual {name} = {value!r} above {KKT_TOL:g}")
    return problems


def check_optimal_csv(text, workdir):
    problems: list = []
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["N", "p"] or len(rows) != 4:
        return [f"unexpected N,p table {rows!r}"]
    for n, (label, p) in enumerate(rows[1:]):
        if label != str(n):
            problems.append(f"row {n} labelled {label!r}")
        _close(f"p[{n}]", p, parabola(1.0, n), TOL, problems)
    return problems


def check_sweep(text, workdir):
    problems: list = []
    data = _envelope(text, "sweep")
    if len(data) != 19:
        return [f"expected 19 sweep records, got {len(data)}"]
    for i, row in enumerate(data):
        nbar = 0.5 * i
        _close("nbar", row["nbar"], nbar, TOL, problems)
        _close(f"optimal@{nbar}", row["degree_optimal"], optimal_degree(nbar), 1e-10, problems)
        _close(f"coherent@{nbar}", row["degree_coherent"], coherent_degree(nbar), 1e-10, problems)
        _close(f"thermal@{nbar}", row["degree_thermal"], thermal_degree(nbar), 1e-10, problems)
        _close(f"twin@{nbar}", row["degree_twin_exact"], twin_degree_at_mean(nbar), 1e-9, problems)
        if nbar == 0.0:
            if row["mandel_q_optimal"] is not None:
                problems.append("Mandel Q must be null at nbar = 0")
        else:
            _close(f"mandel_q@{nbar}", row["mandel_q_optimal"], (nbar - 3.0) / 5.0, 1e-9, problems)
        if row["support_size"] != i + 1:  # N = 0..2 nbar
            problems.append(f"support size {row['support_size']} at nbar {nbar}")
    return problems


def check_figures(text, workdir):
    problems: list = []
    files = _envelope(text, "figures")["files"]
    if sorted(os.path.basename(f) for f in files) != sorted(FIG_ROWS):
        return [f"unexpected figure files {files!r}"]
    tables = {}
    for name, want in FIG_ROWS.items():
        with open(os.path.join(workdir, FIG_DIR, name), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        tables[name] = rows[1:]
        if len(rows) - 1 != want:
            problems.append(f"{name}: {len(rows) - 1} data rows, want {want}")
    for nbar, q in tables["fig2.csv"]:
        if float(nbar).is_integer():
            _close(f"fig2 q@{nbar}", q, (float(nbar) - 3.0) / 5.0, 1e-10, problems)
    for nbar, n, p in tables["fig3.csv"]:
        _close(f"fig3 p@{nbar},{n}", p, parabola(float(nbar), int(n)), 1e-11, problems)
    return problems


def check_verify(text, workdir):
    data = _envelope(text, "verify")
    if data.get("passed") is not True:
        failed = [c["name"] for c in data.get("checks", []) if not c.get("passed")]
        return [f"self-checks failed: {failed}"]
    return []


@dataclass(frozen=True)
class Case:
    args: tuple
    check: Callable

    @property
    def command(self) -> str:
        return self.args[0]


#: The README's nine example invocations plus two more catalog states.
CASES = (
    Case(("degree", "--state", "nphoton", "--n", "1"), expect_degree(1.0 / 2.0)),
    Case(("degree", "--state", "coherent", "--nbar", "1"), expect_degree(coherent_degree(1.0))),
    Case(("degree", "--state", "twin", "--xi", "0.88137"),
         expect_degree(twin_degree_at_mean(2.0 * math.sinh(0.88137) ** 2))),
    Case(("degree", "--state", "custom", "--probs", "0.3,0.4,0.3"),
         expect_degree(1.0 - (0.09 + 0.16 / 2.0 + 0.09 / 3.0))),
    Case(("optimal", "--nbar", "2", "--method", "qp"), check_optimal_qp),
    Case(("optimal", "--nbar", "1", "--method", "closed", "--format", "csv"), check_optimal_csv),
    Case(("sweep", "--start", "0", "--end", "9", "--step", "0.5"), check_sweep),
    Case(("figures", "--outdir", FIG_DIR), check_figures),
    Case(("verify",), check_verify),
    Case(("degree", "--state", "su2", "--n", "3", "--theta", "1", "--phi", "0.5"),
         expect_degree(3.0 / 4.0)),
    Case(("degree", "--state", "thermal", "--nbar", "2"), expect_degree(thermal_degree(2.0))),
)

COMMANDS = ("degree", "optimal", "sweep", "figures", "verify")


def case_order(rng):
    """Endless seeded sequence of cases: each cycle is a fresh permutation."""
    while True:
        cycle = list(CASES)
        rng.shuffle(cycle)
        yield from cycle


def judge(case: Case, text: str, code: int, workdir) -> list:
    if code != 0:
        return [f"{' '.join(case.args)}: exit code {code}"]
    try:
        problems = case.check(text, workdir)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return [f"{' '.join(case.args)}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env(src_dir) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    return env


def spawn(argv, workdir, env) -> tuple[float, int, int, str]:
    """Run ``argv`` to completion; return wall seconds, exit code, the
    child's peak resident set in KiB and its standard output."""
    out_path = os.path.join(workdir, "stdout.txt")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdout=out, stderr=subprocess.DEVNULL
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    return elapsed, proc.returncode, usage.ru_maxrss, text


def run_case(case: Case, workdir, env) -> tuple[float, int, list]:
    """One cli-cold operation: wall seconds, peak RSS in KiB, problems."""
    argv = [sys.executable, "-m", "polmax", *case.args]
    elapsed, code, rss, text = spawn(argv, workdir, env)
    return elapsed, rss, judge(case, text, code, workdir)


# ---------------------------------------------------------------------------
# start-up probes
# ---------------------------------------------------------------------------

IMPORT_FAMILIES = ("numpy", "scipy", "polmax")


def parse_importtime(stderr: str) -> dict:
    """Self time in ms per family, from ``python -X importtime`` output.

    A module's self time goes to the outermost numpy or scipy module that
    encloses it, itself included, or else to the outermost polmax module,
    so whatever scipy pulls in (numpy submodules too) counts as scipy's:
    it is what dropping that import would save.
    """
    pending: list = []  # (depth, name, self_us, children) awaiting a parent
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # header or unrelated line
        self_us, _, name = fields
        depth = (len(name) - len(name.lstrip())) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(self_us), children))
    totals = dict.fromkeys(IMPORT_FAMILIES, 0.0)

    def walk(node, owner):
        _, name, self_us, children = node
        family = name.split(".", 1)[0]
        if family in totals and owner in (None, "polmax"):
            owner = family
        if owner is not None:
            totals[owner] += self_us / 1e3
        for child in children:
            walk(child, owner)

    for root in pending:
        walk(root, None)
    return totals


def startup_probes(workdir, env, repeats: int) -> dict:
    """Medians over ``repeats`` fresh interpreters: the bare interpreter
    (``python -c pass``) and the import cost of numpy, scipy and polmax."""
    bare, families = [], {f: [] for f in IMPORT_FAMILIES}
    for _ in range(repeats):
        bare.append(spawn([sys.executable, "-c", "pass"], workdir, env)[0] * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import polmax"],
            cwd=workdir, env=env, capture_output=True, text=True, check=True,
        )
        for family, ms in parse_importtime(proc.stderr).items():
            families[family].append(ms)
    out = {"interpreter_ms": statistics.median(bare)}
    out.update({f: statistics.median(v) for f, v in families.items()})
    return out
