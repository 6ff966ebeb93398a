"""The in-process workloads, qp-bound and catalog-sweep, and the solve
scaling curve.

Operations reach the library only through an ``Api``: plain references to
the public functions of ``polmax.qpsolve``, ``polmax.distributions`` and
``polmax.degree`` when untraced, or wrappers that record one span per call
when traced.  The library is not modified; it only sees generated inputs.
"""

from __future__ import annotations

import math
import time

from polmax import degree, distributions, qpsolve

KKT_TOL = 1e-10
SERIES_TOL = 1e-9

PUBLIC = {
    qpsolve: ("build_problem", "solve", "verify_kkt"),
    distributions: (
        "poisson_dim_for_tail",
        "thermal_dim_for_tail",
        "twin_beam_dim_for_tail",
        "poisson_distribution",
        "thermal_distribution",
        "twin_beam_distribution",
        "mandel_q",
        "twin_beam_xi_for_mean",
    ),
    degree: (
        "hs_degree",
        "degree_from_solution",
        "degree_optimal_closed_form",
        "degree_coherent_closed_form",
        "degree_thermal_series",
        "degree_twin_beam_exact",
    ),
}


class Api:
    """The library functions the workloads call, optionally traced."""

    def __init__(self, tracer=None):
        for module, names in PUBLIC.items():
            for name in names:
                fn = getattr(module, name)
                if tracer is not None:
                    fn = tracer.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{name}", fn)
                setattr(self, name, fn)


class Tally:
    """Exact counts and worst-case residuals gathered by the operations."""

    def __init__(self):
        self.solves = 0
        self.iterations = 0
        self.kkt_audits = 0
        self.kkt_passed = 0
        self.max_kkt_residual = 0.0
        self.elements = 0
        self.max_series_vs_closed = 0.0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

#: Inputs are drawn in blocks of this many stratified cells, so that every
#: seed covers the input range evenly and the per-run medians do not depend
#: on which end of the range one seed happens to favour.
BLOCK = 32


def stratified(rng, lo: float, hi: float):
    """Endless sequence on [lo, hi): each block of BLOCK draws has one
    uniformly jittered point in each of BLOCK equal cells, in seeded order."""
    while True:
        cells = list(range(BLOCK))
        rng.shuffle(cells)
        for c in cells:
            yield lo + (hi - lo) * (c + rng.random()) / BLOCK


def qp_bound_inputs(rng):
    """(nbar, D) with D uniform on 100..400 and nbar = D - u, u in (0, 1),
    so the truncation at D binds and the active-set loop runs ~D times."""
    for x in stratified(rng, 100.0, 401.0):
        dim = int(x)
        u = rng.random() or 0.5
        yield dim - u, dim


def catalog_inputs(rng):
    """nbar log-uniform on [0.01, 1e3]."""
    for x in stratified(rng, math.log(0.01), math.log(1e3)):
        yield math.exp(x)


# ---------------------------------------------------------------------------
# operations: each returns a list of problems, empty when every check holds
# ---------------------------------------------------------------------------


def _solve_and_audit(api: Api, tally: Tally, nbar: float, dim: int, problems: list):
    problem = api.build_problem(nbar, dim)
    solution = api.solve(problem)
    report = api.verify_kkt(problem, solution, KKT_TOL)
    residual = report.residuals.max_residual()
    tally.solves += 1
    tally.iterations += solution.iterations
    tally.kkt_audits += 1
    tally.kkt_passed += report.passed
    tally.max_kkt_residual = max(tally.max_kkt_residual, residual)
    if not report.passed:
        problems.append(f"KKT audit failed at nbar={nbar!r}, D={dim}: {residual:.3e}")
    return solution


def qp_bound_op(api: Api, tally: Tally, x) -> list:
    nbar, dim = x
    problems: list = []
    solution = _solve_and_audit(api, tally, nbar, dim, problems)
    if not solution.dist.probs[dim] > 0.0:
        problems.append(f"truncation at D={dim} does not bind for nbar={nbar!r}")
    return problems


def catalog_op(api: Api, tally: Tally, nbar: float) -> list:
    """One `polmax sweep` grid point plus the series-vs-closed-form checks."""
    problems: list = []
    solution = _solve_and_audit(api, tally, nbar, math.ceil(2.0 * nbar) + 4, problems)
    api.degree_from_solution(solution)
    api.mandel_q(solution.dist)
    api.degree_optimal_closed_form(nbar)
    xi = api.twin_beam_xi_for_mean(nbar)
    families = (
        ("coherent", nbar, api.poisson_dim_for_tail, api.poisson_distribution,
         api.degree_coherent_closed_form),
        ("thermal", nbar, api.thermal_dim_for_tail, api.thermal_distribution,
         api.degree_thermal_series),
        ("twin", xi, api.twin_beam_dim_for_tail, api.twin_beam_distribution,
         api.degree_twin_beam_exact),
    )
    for label, param, dim_for_tail, build, closed_form in families:
        closed = closed_form(param).value
        dist = build(param, dim_for_tail(param))
        tally.elements += dist.probs.size
        err = abs(api.hs_degree(dist).value - closed)
        tally.max_series_vs_closed = max(tally.max_series_vs_closed, err)
        if not err <= SERIES_TOL:
            problems.append(f"{label} series vs closed form {err:.3e} at nbar={nbar!r}")
    return problems


# ---------------------------------------------------------------------------
# scaling curve
# ---------------------------------------------------------------------------

CURVE_DIMS = (10, 100, 1000, 4000)


def curve_points():
    """(metric name, nbar, D) for the truncation-bound and free regimes."""
    for dim in CURVE_DIMS:
        yield f"qpsolve.curve.bound.d{dim}_ms", dim - 0.5, dim
        yield f"qpsolve.curve.free.d{dim}_ms", dim / 2.0 - 2.0, dim


def solve_curve(tracer) -> tuple[dict, float]:
    """Time one solve per curve point; also return the worst KKT residual.

    The points time the solver's asymptotic cost and are not workload
    operations, so their audits are reported rather than counted as
    failures.  The absolute mean-constraint residual grows with D and
    reaches ~1.0e-10 at the D = 4000 bound point.
    """
    times, worst = {}, 0.0
    for name, nbar, dim in curve_points():
        problem = qpsolve.build_problem(nbar, dim)
        start = time.perf_counter()
        solution = tracer.wrap(name, qpsolve.solve)(problem)
        times[name] = (time.perf_counter() - start) * 1e3
        report = qpsolve.verify_kkt(problem, solution, KKT_TOL)
        worst = max(worst, report.residuals.max_residual())
    return times, worst
