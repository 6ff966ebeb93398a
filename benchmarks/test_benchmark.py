"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/test_benchmark.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import cli_cases  # noqa: E402
import library  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "PROBE_REPEATS", 1)
    monkeypatch.setattr(run, "TRACED_OPS", {"cli-cold": 0, "qp-bound": 3, "catalog-sweep": 24})


def bench(capsys, workload, trace, seed=SEED, seconds=0.2):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["qp-bound", "catalog-sweep"])
def test_same_seed_repeats_exact_counts(capsys, workload):
    counts = ("qpsolve.iterations", "distributions.elements", "cli.output_bytes")
    first = bench(capsys, workload, 1)[1]["metrics"]
    second = bench(capsys, workload, 1)[1]["metrics"]
    assert [first[c]["value"] for c in counts] == [second[c]["value"] for c in counts]
    assert first["qpsolve.iterations"]["value"] > 0


def test_corrupted_closed_form_fails_catalog_sweep(capsys, monkeypatch):
    exact = library.degree.degree_thermal_series

    def corrupted(nbar):
        result = exact(nbar)
        return dataclasses.replace(result, value=result.value * (1.0 - 1e-6))

    monkeypatch.setattr(library.degree, "degree_thermal_series", corrupted)
    code, result = bench(capsys, "catalog-sweep", 0)
    assert code != 0 and not result["correct"]
    assert result["failed"] > 0
    _, traced = bench(capsys, "catalog-sweep", 1)
    assert traced["metrics"]["failed_frac"]["value"] > 0


def test_corrupted_expected_row_count_fails_cli_cold(capsys, monkeypatch):
    figures = next(c for c in cli_cases.CASES if c.command == "figures")
    monkeypatch.setattr(cli_cases, "CASES", (figures,))
    monkeypatch.setitem(cli_cases.FIG_ROWS, "fig3.csv", 235)
    code, result = bench(capsys, "cli-cold", 0)
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "qp-bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans[:] = [
        ("outer", 0, 100, -1, 0),
        ("inner", 10, 30, 0, 0),
        ("inner", 40, 70, 0, 0),
        ("leaf", 45, 50, 2, 0),
    ]
    summary = tracer.summary()
    assert summary["outer"]["self_ms"] == pytest.approx(50 / 1e6)
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["self_ms"] == pytest.approx(45 / 1e6)


def test_import_time_goes_to_the_outermost_numpy_or_scipy_module():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     unittest",
        "import time:        20 |         30 |   numpy.testing",
        "import time:       100 |        130 | scipy",
        "import time:         5 |          5 |   polmax.qpsolve",
        "import time:         7 |          7 |   numpy",
        "import time:         3 |         15 | polmax",
    ])
    assert cli_cases.parse_importtime(stderr) == {
        "numpy": pytest.approx(0.007), "scipy": pytest.approx(0.130), "polmax": pytest.approx(0.008)
    }
