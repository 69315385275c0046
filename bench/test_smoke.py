"""Seconds-long checks of the benchmark harness on tiny inputs.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = ("census", "analyze", "element", "verify")


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = _bench(ROOT, *args)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    record = json.loads(proc.stdout[: proc.stdout.rindex("\n", 0, len(proc.stdout) - 1)])
    assert record["seed"] == 7 and record["environment"]["nproc"] >= 1


def test_same_seed_same_element_inputs():
    scale = run.SCALES["full"]
    first = run.make_ops("element", scale, run.random.Random(3))
    again = run.make_ops("element", scale, run.random.Random(3))
    other = run.make_ops("element", scale, run.random.Random(4))
    assert [op.argv for op in first] == [op.argv for op in again]
    assert [op.argv for op in first] != [op.argv for op in other]


def test_conjugate_keeps_cycle_type():
    w = run.conjugate("(1 2 3)(4 5)", [5, 3, 1, 2, 4])
    assert w == "(5 3 1)(2 4)"
    assert run.canonical_cycles(w) == "(1 5 3)(2 4)"


def test_gates_count_failures():
    expected = json.loads((BENCH / "expected.json").read_text())["smoke"]
    spec = run.SCALES["smoke"]["analyze_specs"][0]
    op = run.Op("analyze", spec, ["analyze", spec, "--json", "--stable"])
    assert run.check(op, {"rc": 0, "stdout": "{}\n"}, expected).failed == 1
    assert run.check(op, None, expected).failed == 1

    census = run.make_ops("census", run.SCALES["smoke"], None)[0]
    assert run.check(census, {"rc": 0, "stdout": ""}, expected).failed == expected["census"]["rebuilt"]

    verify = run.make_ops("verify", run.SCALES["smoke"], None)[0]
    checks = expected["verify"]["checks"]
    lines = [f"suite {name}: pass ({n} checks, 0 failures)" for name, n in checks.items()]
    assert run.check(verify, {"rc": 0, "stdout": "\n".join(lines)}, expected).failed == 0
    lines[0] = lines[0].replace(" checks", "0 checks")
    assert run.check(verify, {"rc": 0, "stdout": "\n".join(lines)}, expected).failed == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
