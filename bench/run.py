"""The powercrit benchmark: end-to-end CLI workloads and a traced per-layer pass.

    python3 bench/run.py --workload census|analyze|element|verify \\
        --seed N --seconds S --trace 0|1 [--smoke]

CLI calls run in fresh interpreters (``worker.py``, one per analyze spec
and one per pass otherwise) that import ``powercrit.cli`` from this
checkout's ``src/`` and then time ``powercrit.cli.main(argv)``
in-process.  Calls run one at a time, a closed loop with one client, so
at most one child process exists.
Every output is checked against values recorded at the seed commit
(``expected.json``); a wrong exit code, a traceback or a wrong output
counts the operation as failed.

``--trace 0`` repeats passes over the workload until ``--seconds`` have
passed (always finishing the pass it is in) and reports the end-to-end
metrics: wall_s, setup_s, peak_rss_mb and elements_per_s.

``--trace 1`` makes one pass in which each call runs three times: untraced,
with spans, and with counters (``tracer.py``).  It checks that both traced
payloads equal the untraced one and reports the per-layer metrics, each
from the pass named in ``PASS_OF``.

``--smoke`` swaps in tiny inputs so the whole harness runs in seconds
(``test_smoke.py``).  Everything else, the last line included, is the
same.  The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are the full record of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer  # beside this file, which Python puts first on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
# a run must end within 180 s; stop children well before that
RUN_DEADLINE_S = 170.0

# Inputs per scale.  "full" is the benchmark; "smoke" only exercises the
# harness.  Why each workload is in the set is written in BENCHMARK.json.
SCALES = {
    "full": {
        "census_max_order": 1200,
        "analyze_specs": ["C:4096", "D:2000", "Q:11", "C:2 x D:1000", "M:17,2,2,2,38"],
        # (degree, cycles): each query is conjugated by a seeded permutation
        "element_queries": [(8, "(1 2 3)(4 5 6 7 8)"), (8, "(1 2 3 4 5 6 7 8)")],
        "verify_max_order": 300,
    },
    "smoke": {
        "census_max_order": 120,
        "analyze_specs": ["D:15"],
        "element_queries": [(6, "(1 2 3)(4 5)")],
        "verify_max_order": 60,
    },
}

# per-layer metric -> the span whose self time it is; "_self_s" marks the
# spans whose nested spans hold most of their total time
SELF_NAMED = {"cli.main", "frobenius.census", "report.analyze_group", "report.element_report"}
SPAN_SELF = {f"{span}_self_s" if span in SELF_NAMED else f"{span}_s": span for span in tracer.SPANS}
SPAN_CALLS = {
    "power_graph.closure_calls": "power_graph.closure",
    "criticality.classify_class_calls": "criticality.classify_class",
}
COUNTS = (
    "groups.mul_calls",
    "groups.scans",
    "groups.scanned",
    "groups.cyclic_subgroups",
    "power_graph.twin_classes",
    "power_graph.builds",
)
PER_LAYER_UNITS = {
    **{m: "s" for m in SPAN_SELF},
    **{m: "count" for m in (*SPAN_CALLS, *COUNTS)},
    "groups.scanned_per_query": "ratio",
    "power_graph.builds_per_group": "ratio",
    "report.payload_bytes": "bytes",
    "trace.overhead_s": "s",
}
PASS_OF = {
    **{m: "spans" for m in (*SPAN_SELF, *SPAN_CALLS)},
    **{m: "counts" for m in (*COUNTS, "groups.scanned_per_query", "power_graph.builds_per_group")},
    "report.payload_bytes": "untraced",
    "trace.overhead_s": "spans minus untraced",
}

CENSUS_FIELDS = {
    **{k: int for k in ("p", "a", "q", "b", "r", "order")},
    **{k: bool for k in ("well_defined", "eppo", "frobenius", "critical")},
    **{k: (bool, type(None)) for k in ("graph_is_critical", "graph_agrees")},
}
SUITE_LINE = re.compile(r"^suite (\w+): (\w+) \((\d+) checks, (\d+) failures\)$")


@dataclass
class Op:
    """One CLI call: its argv, what kind of check applies, and its sample key."""

    kind: str
    key: str
    argv: list[str]
    element: str = ""


@dataclass
class Outcome:
    attempted: int
    failed: int
    elements: int
    notes: list[str] = field(default_factory=list)


# -- inputs --------------------------------------------------------------------


def conjugate(cycles: str, perm: list[int]) -> str:
    """Relabel every point p of a cycle string as perm[p - 1]."""
    return re.sub(r"\d+", lambda m: str(perm[int(m.group()) - 1]), cycles)


def canonical_cycles(cycles: str) -> str:
    """Cycle notation as powercrit prints it: each cycle from its least point, in order."""
    out = []
    for body in re.findall(r"\(([^)]*)\)", cycles):
        pts = [int(x) for x in body.split()]
        if len(pts) > 1:
            i = pts.index(min(pts))
            out.append(pts[i:] + pts[:i])
    return "".join("(" + " ".join(map(str, c)) + ")" for c in sorted(out)) or "()"


def make_ops(workload: str, scale: dict, rng: random.Random) -> list[Op]:
    """The CLI calls of one pass; element queries draw fresh conjugates from rng."""
    if workload == "census":
        n = str(scale["census_max_order"])
        return [Op("census", "census", ["census", "--max-order", n, "--verify-up-to", n, "--all-r", "--json"])]
    if workload == "analyze":
        return [Op("analyze", s, ["analyze", s, "--json", "--stable"]) for s in scale["analyze_specs"]]
    if workload == "element":
        ops = []
        for degree, cycles in scale["element_queries"]:
            perm = list(range(1, degree + 1))
            rng.shuffle(perm)
            w = conjugate(cycles, perm)
            argv = ["analyze", f"S:{degree}", "--element", w, "--json", "--stable", "--workers", "1"]
            ops.append(Op("element", f"S:{degree} {cycles}", argv, element=w))
        return ops
    if workload == "verify":
        n = str(scale["verify_max_order"])
        return [Op("verify", "verify", ["verify", "--suite", "all", "--max-order", n])]
    raise ValueError(f"unknown workload {workload!r}")


# -- correctness gates ---------------------------------------------------------


def check(op: Op, res: dict | None, expected: dict) -> Outcome:
    """Count the operations of one call and the ones that failed."""
    return CHECKS[op.kind](op, res, expected[op.kind])


def _ran(res: dict | None) -> bool:
    return res is not None and res["rc"] == 0


def check_census(op: Op, res: dict | None, exp: dict) -> Outcome:
    # one operation per rebuilt group
    total = exp["rebuilt"]
    if not _ran(res):
        return Outcome(total, total, 0, ["census did not exit 0"])
    lines = res["stdout"].splitlines()
    if len(lines) != exp["lines"]:
        return Outcome(total, total, 0, [f"{len(lines)} census lines, expected {exp['lines']}"])
    docs = [doc for doc in map(_json_or_none, lines) if _census_line_valid(doc)]
    bad = len(lines) - len(docs) + sum(d["graph_agrees"] is False for d in docs)
    rebuilt = [d for d in docs if d["graph_is_critical"] is not None]
    critical = sorted({d["order"] for d in docs if d["critical"]})
    if len(rebuilt) != total or critical != exp["critical_orders"]:
        return Outcome(total, total, 0, [f"{len(rebuilt)} rebuilt, critical orders {critical}"])
    notes = [f"{bad} census lines invalid or disagreeing"] if bad else []
    return Outcome(total, bad, sum(d["order"] for d in rebuilt), notes)


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _census_line_valid(doc) -> bool:
    return (
        isinstance(doc, dict)
        and doc.keys() == CENSUS_FIELDS.keys()
        and all(
            isinstance(doc[k], t) and not (t is int and isinstance(doc[k], bool))
            for k, t in CENSUS_FIELDS.items()
        )
    )


def check_analyze(op: Op, res: dict | None, exp: dict) -> Outcome:
    want = exp[op.key]
    if not _ran(res):
        return Outcome(1, 1, 0, [f"{op.key}: did not exit 0"])
    if _sha256(res["stdout"]) != want["sha256"]:
        return Outcome(1, 1, 0, [f"{op.key}: payload digest differs from the seed commit"])
    return Outcome(1, 0, want["order"])


def check_element(op: Op, res: dict | None, exp: dict) -> Outcome:
    want = exp[op.key]
    if not _ran(res):
        return Outcome(1, 1, 0, [f"{op.element}: did not exit 0"])
    doc = _json_or_none(res["stdout"])
    label = doc.pop("element", None) if isinstance(doc, dict) else None
    if doc != want or label != canonical_cycles(op.element):
        return Outcome(1, 1, 0, [f"{op.element}: report differs from the seed commit"])
    return Outcome(1, 0, want["order"])


def check_verify(op: Op, res: dict | None, exp: dict) -> Outcome:
    # one operation per suite
    want = exp["checks"]
    if not _ran(res):
        return Outcome(len(want), len(want), 0, ["verify did not exit 0"])
    seen = {}
    for line in res["stdout"].splitlines():
        m = SUITE_LINE.match(line)
        if m:
            seen[m.group(1)] = (m.group(2), int(m.group(3)), int(m.group(4)))
    bad = [name for name, checks in want.items() if seen.get(name) != ("pass", checks, 0)]
    notes = [f"suite {name}: {seen.get(name)}, expected pass with {want[name]} checks" for name in bad]
    return Outcome(len(want), len(bad), exp["elements"], notes)


CHECKS = {"census": check_census, "analyze": check_analyze, "element": check_element, "verify": check_verify}


# -- processes -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    # C:4096 must stay materialized at the default threshold
    env.pop("POWERCRIT_MAX_MATERIALIZE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


class Runner:
    """Starts children one at a time and stops them at the run's deadline."""

    def __init__(self):
        self.started = time.perf_counter()
        self.env = child_env()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def _run(self, args: list[str]) -> subprocess.CompletedProcess | None:
        if self.remaining() <= 0:
            return None
        try:
            return subprocess.run(
                [sys.executable, *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return None

    def setup_time(self) -> float | None:
        """Seconds for a fresh interpreter to import powercrit.cli."""
        t0 = time.perf_counter()
        proc = self._run(["-c", "import powercrit.cli"])
        dt = time.perf_counter() - t0
        return dt if proc is not None and proc.returncode == 0 else None

    def call(self, ops: list[Op], trace: str) -> dict | None:
        """Run the ops' CLI calls in one fresh worker; None if it did not finish."""
        job = json.dumps({"calls": [op.argv for op in ops], "trace": trace})
        proc = self._run([str(BENCH / "worker.py"), job])
        if proc is None or proc.returncode != 0:
            if proc is not None:
                sys.stderr.write(proc.stderr[-2000:])
            return None
        res = json.loads(proc.stdout.splitlines()[-1])
        for call in res["calls"]:
            if call["rc"] != 0:
                sys.stderr.write(call["stderr"])
        return res


def batches(workload: str, ops: list[Op]) -> list[list[Op]]:
    """Ops that share one worker process.

    Each analyze spec gets its own process, as a user's invocation at the
    threshold would, so its peak memory is its own.  The other workloads
    run a whole pass in one process.
    """
    return [[op] for op in ops] if workload == "analyze" else [ops]


# -- runs ----------------------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, plus the highest percentile with ten samples beyond it."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"n": len(values), "median": med, "q1": q1, "q3": q3}
    k = len(values) - 10
    if k > len(values) / 2:
        out[f"p{100 * k // len(values)}"] = sorted(values)[k - 1]
    return out


class Tally:
    """Operations attempted and failed, with the first failure notes."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def add(self, out: Outcome, tag: str = "") -> None:
        self.attempted += out.attempted
        self.failed += out.failed
        self.notes += [tag + n for n in out.notes]

    def result(self, metrics: dict) -> dict:
        attempted = max(self.attempted, 1)
        failed = self.failed if metrics else max(self.failed, 1)
        return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_untraced(workload: str, scale: dict, expected: dict, seed: int, seconds: int) -> tuple[dict, dict]:
    runner = Runner()
    rng = random.Random(seed)
    setup = [t for t in (runner.setup_time() for _ in range(SETUP_SAMPLES)) if t is not None]
    walls: dict[str, list[float]] = {}
    elements: dict[str, int] = {}
    tally = Tally()
    rss_kb = passes = 0
    begun = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for batch in batches(workload, make_ops(workload, scale, rng)):
            res = runner.call(batch, "off")
            for i, op in enumerate(batch):
                call = res["calls"][i] if res is not None else None
                out = check(op, call, expected)
                tally.add(out)
                if call is not None:
                    walls.setdefault(op.key, []).append(call["wall_s"])
                elements[op.key] = max(elements.get(op.key, 0), out.elements)
            if res is not None:
                rss_kb = max(rss_kb, res["maxrss_kb"])
        passes += 1
        last = time.perf_counter() - pass_started
        if time.perf_counter() - begun >= seconds or last > runner.remaining() or tally.failed:
            break
    per_op = {key: quartiles(v) for key, v in walls.items()}
    # a pass's wall time is the sum of its calls: each call's median over passes
    wall = sum(q["median"] for q in per_op.values())
    metrics = {}
    if walls and setup and not tally.failed:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "elements_per_s": {"value": sum(elements.values()) / wall, "unit": "elem/s"},
        }
    result = tally.result(metrics)
    detail = {
        "passes": passes,
        "wall_s_per_call": per_op,
        "setup_s_samples": quartiles(setup) if setup else None,
        "elements_per_pass": sum(elements.values()),
        "fail_frac": {"value": result["failed"] / result["attempted"], "unit": "ratio"},
        "failures": tally.notes[:20],
    }
    return result, detail


def run_traced(workload: str, scale: dict, expected: dict, seed: int) -> tuple[dict, dict]:
    runner = Runner()
    rng = random.Random(seed)
    tally = Tally()
    wall = {"off": 0.0, "spans": 0.0, "counts": 0.0}
    edges: dict[tuple[str, str], list] = {}
    counts: dict[str, int] = {}
    distinct = elements = payload_bytes = 0
    for batch in batches(workload, make_ops(workload, scale, rng)):
        base: list[str | None] = [None] * len(batch)
        for mode in ("off", "spans", "counts"):
            res = runner.call(batch, mode)
            for i, op in enumerate(batch):
                call = res["calls"][i] if res is not None else None
                out = check(op, call, expected)
                tally.add(out, f"[{mode}] ")
                if call is None:
                    continue
                wall[mode] += call["wall_s"]
                if mode == "off":
                    base[i] = call["stdout"]
                    elements += out.elements
                    payload_bytes += len(call["stdout"].encode())
                elif call["stdout"] != base[i] and not out.failed:
                    differs = Outcome(0, out.attempted, 0, [f"{op.key}: payload differs from the untraced one"])
                    tally.add(differs, f"[{mode}] ")
            if res is None:
                continue
            if mode == "spans":
                for caller, name, calls, total, self_s in res["trace"]["edges"]:
                    rec = edges.setdefault((caller, name), [0, 0.0, 0.0])
                    rec[0] += calls
                    rec[1] += total
                    rec[2] += self_s
            elif mode == "counts":
                for k, v in res["trace"]["counts"].items():
                    counts[k] = counts.get(k, 0) + v
                distinct += res["trace"]["distinct_groups"]

    def span_sum(name: str, i: int) -> float:
        return sum(rec[i] for (_, n), rec in edges.items() if n == name)

    values = {
        **{m: span_sum(span, 2) for m, span in SPAN_SELF.items()},
        **{m: span_sum(span, 0) for m, span in SPAN_CALLS.items()},
        **{m: counts.get(m, 0) for m in COUNTS},
        "groups.scanned_per_query": counts.get("groups.scanned", 0) / elements if elements else 0.0,
        "power_graph.builds_per_group": counts.get("power_graph.builds", 0) / distinct if distinct else 0.0,
        "report.payload_bytes": payload_bytes,
        "trace.overhead_s": wall["spans"] - wall["off"],
    }
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER_UNITS.items()}
    result = tally.result(metrics)
    detail = {
        "wall_s_by_pass": wall,
        "overhead_s": {"spans": wall["spans"] - wall["off"], "counts": wall["counts"] - wall["off"]},
        "metric_source_pass": PASS_OF,
        "spans": [
            {"caller": c, "span": n, "calls": r[0], "total_s": r[1], "self_s": r[2]}
            for (c, n), r in sorted(edges.items(), key=lambda kv: -kv[1][1])
        ],
        "elements": elements,
        "fail_frac": {"value": result["failed"] / result["attempted"], "unit": "ratio"},
        "failures": tally.notes[:20],
    }
    return result, detail


# -- record of the environment -------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "powercrit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("census", "analyze", "element", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, to test the harness")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "powercrit" / "cli.py").is_file():
        print(f"no powercrit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    scale_name = "smoke" if args.smoke else "full"
    expected = json.loads((BENCH / "expected.json").read_text())[scale_name]
    scale = SCALES[scale_name]

    env = environment()
    load_before = os.getloadavg()
    if args.trace:
        result, detail = run_traced(args.workload, scale, expected, args.seed)
    else:
        result, detail = run_untraced(args.workload, scale, expected, args.seed, args.seconds)
    record = {
        "workload": args.workload,
        "scale": scale_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**env, "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        **detail,
    }
    print(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
