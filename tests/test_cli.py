import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_edge_count, cycle_type_label, integer_partitions
from powercrit import PowerGraph, make_symmetric, parse_group_spec
from powercrit.cli import _dump, main
from powercrit.power_graph import export_json_graph
from powercrit.report import (
    ANALYSIS_REPORT_SCHEMA,
    CENSUS_LINE_SCHEMA,
    ELEMENT_REPORT_SCHEMA,
    GRAPH_EXPORT_SCHEMA,
    analyze_group,
    element_report,
    validate_document,
)
from powercrit.verify import builtin_family


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_d15_plain_critical_class(capsys):
    code, out, _ = run(capsys, "analyze", "D:15", "--json", "--stable")
    assert code == 0
    doc = json.loads(out)
    validate_document(doc, ANALYSIS_REPORT_SCHEMA)
    jsonschema.validate(doc, ANALYSIS_REPORT_SCHEMA)
    assert doc["order"] == 30
    hits = [c for c in doc["classes"] if c["kind"] == "plain" and c["is_critical"]]
    assert len(hits) == 1
    assert hits[0]["size"] == 8 and hits[0]["closure_size"] == 9


def test_analyze_minimum_critical_group(capsys):
    code, out, _ = run(capsys, "analyze", "M:5,2,2,2,7", "--json", "--stable")
    assert code == 0
    doc = json.loads(out)
    assert doc["group_kind"]["is_critical_group"] is True
    non_trivial = [c for c in doc["classes"] if not (c["is_star_class"] and c["size"] == 1)]
    assert len(non_trivial) == 26
    assert doc["frobenius"] == {"p": 5, "a": 2, "q": 2, "b": 2}
    assert doc["is_eppo"] is True


def test_analyze_element_report(capsys):
    code, out, _ = run(capsys, "analyze", "S:4", "--element", "(1 2 3 4)", "--json", "--stable")
    assert code == 0
    doc = json.loads(out)
    validate_document(doc, ELEMENT_REPORT_SCHEMA)
    jsonschema.validate(doc, ELEMENT_REPORT_SCHEMA)
    assert doc["kind"] == "compound" and doc["is_critical"] is True
    assert doc["params"]["p"] == 2 and doc["params"]["s"] == 0
    assert doc["is_maximal"] is True


def test_analyze_element_lazy_scale(capsys):
    code, out, _ = run(
        capsys, "analyze", "S:8", "--element", "(1 2 3)(4 5 6 7 8)", "--json", "--stable"
    )
    assert code == 0
    doc = json.loads(out)
    validate_document(doc, ELEMENT_REPORT_SCHEMA)
    jsonschema.validate(doc, ELEMENT_REPORT_SCHEMA)
    assert doc["order"] == 40320
    assert doc["kind"] == "plain" and doc["is_critical"] is True
    assert doc["n_class_size"] == 8 and doc["closure_size"] == 9
    assert doc["is_maximal"] is True and doc["element_order"] == 15


def test_analyze_workers_flag_is_accepted_and_ignored(capsys):
    argv = ["analyze", "S:8", "--element", "(1 2 3 4 5 6 7 8)", "--json", "--stable"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    for workers in ("1", "4"):
        code, out, _ = run(capsys, *argv, "--workers", workers)
        assert code == 0 and out == plain
    code, out, err = run(capsys, *argv, "--workers", "x")
    assert (code, out) == (2, "") and "argument --workers: invalid int value: 'x'" in err
    for help_argv in (["analyze", "--help"], ["analyze", "-h"], ["analyze", "--he"], ["--help"]):
        code, out, _ = run(capsys, *help_argv)
        assert code == 0 and "usage: powercrit" in out and "--workers" not in out


def test_analyze_byte_identical_stable(capsys):
    _, first, _ = run(capsys, "analyze", "Q:3", "--json", "--stable")
    _, second, _ = run(capsys, "analyze", "Q:3", "--json", "--stable")
    assert first == second
    _, timed, _ = run(capsys, "analyze", "Q:3", "--json")
    assert "timing_ms" in json.loads(timed)
    assert "timing_ms" not in json.loads(first)


def test_analyze_human_output(capsys):
    code, out, _ = run(capsys, "analyze", "C:6", "--stable")
    assert code == 0
    assert "star vertices: 3" in out


def test_analyze_writes_dot(tmp_path, capsys):
    target = tmp_path / "g.dot"
    code, _, _ = run(capsys, "analyze", "C:8", "--stable", "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith('graph "power(C:8)"') and text.count(" -- ") == 28


def test_analyze_refuses_dot_with_element(tmp_path, capsys):
    target = tmp_path / "g.dot"
    code, out, err = run(capsys, "analyze", "D:3", "--element", "1", "--dot", str(target))
    assert (code, out) == (2, "")
    assert err == "error: --dot draws the whole power graph; it cannot be combined with --element\n"
    assert not target.exists()
    assert run(capsys, "analyze", "D:3", "--element", "1", "--dot", "") == (2, "", err)


def test_census_cli(capsys):
    code, out, _ = run(capsys, "census", "--max-order", "100", "--verify-up-to", "100")
    assert code == 0
    assert "1 critical (orders [100])" in out
    code, out, _ = run(capsys, "census", "--max-order", "99")
    assert code == 0
    assert "0 critical (orders [])" in out


def test_census_jsonl(capsys):
    code, out, _ = run(capsys, "census", "--max-order", "100", "--verify-up-to", "100", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    for line in lines:
        validate_document(line, CENSUS_LINE_SCHEMA)
        jsonschema.validate(line, CENSUS_LINE_SCHEMA)
    crit = [l for l in lines if l["critical"]]
    assert len(crit) == 1 and crit[0]["order"] == 100 and crit[0]["graph_agrees"] is True


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "closure", "--max-order", "24")
    assert code == 0
    assert "suite closure: pass" in out


def test_export_json_matches_brute_force(capsys):
    code, out, _ = run(capsys, "export", "S:4", "--format", "json", "--graph", "power")
    assert code == 0
    doc = json.loads(out)
    validate_document(doc, GRAPH_EXPORT_SCHEMA)
    jsonschema.validate(doc, GRAPH_EXPORT_SCHEMA)
    assert len(doc["vertices"]) == 24
    assert len(doc["edges"]) == brute_edge_count(make_symmetric(4))


def test_export_enhanced_dot(capsys):
    code, out, _ = run(capsys, "export", "D:3", "--format", "dot", "--graph", "enhanced")
    assert code == 0
    assert out.startswith('graph "enhanced(D:3)"')


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "k8.json"
    code, _, _ = run(capsys, "export", "C:8", "--format", "json", "--output", str(target))
    assert code == 0
    assert len(json.loads(target.read_text())["edges"]) == 28


def test_streamed_dot_file_matches_stdout(tmp_path, capsys):
    # more lines than one write batch, streamed to a file and to stdout
    target = tmp_path / "c256.dot"
    code, out, _ = run(capsys, "export", "C:256", "--format", "dot", "--output", str(target))
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "export", "C:256", "--format", "dot")
    assert code == 0 and out.count("\n") > 8192
    assert target.read_text() == out


# -- exit code contract ------------------------------------------------------------


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "Z:1")
    assert code == 2 and "position 0" in err


def test_exit_code_invalid_params(capsys):
    code, _, err = run(capsys, "analyze", "M:4,2,2,2,7")
    assert code == 2 and "not prime" in err


def test_exit_code_invalid_params_strong_pseudoprime(capsys):
    # psi_12 passes Miller-Rabin on every prime base up to 37
    p = 318665857834031151167461
    code, out, err = run(capsys, "analyze", f"M:{p},1,2,1,{p - 1}", "--element", "(0,1)", "--json", "--stable")
    assert code == 2 and out == "" and f"p = {p} is not prime" in err


def test_exit_code_scale_error(capsys):
    code, _, err = run(capsys, "analyze", "S:8")
    assert code == 3 and "threshold" in err


@pytest.mark.parametrize("n", [13, 20_000_000, 10**12])
def test_exit_code_scale_error_quaternion_before_exponentiating(capsys, n):
    started = time.perf_counter()
    code, out, err = run(capsys, "analyze", f"Q:{n}")
    assert time.perf_counter() - started < 1.0
    assert code == 3 and out == ""
    assert f"order 2^{n} exceeds the materialization threshold 4096" in err


def test_exit_code_scale_error_metacyclic_huge_acting_factor(capsys):
    # q^b = 3^40, but 2 has order 3 mod 7: the constructor stores one period
    started = time.perf_counter()
    code, out, err = run(capsys, "analyze", "M:7,1,3,40,2")
    assert time.perf_counter() - started < 1.0
    assert code == 3 and out == "" and "threshold 4096" in err


def test_exit_code_scale_error_metacyclic_centralizer_walk(capsys):
    # C((1,0)) has 7 * 3^39 elements: the walk over the 3^40 acting
    # exponents is refused before it starts
    started = time.perf_counter()
    code, out, err = run(capsys, "analyze", "M:7,1,3,40,2", "--element", "(1,0)")
    assert time.perf_counter() - started < 1.0
    assert code == 3 and out == ""
    assert "q^b = 3^40" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        # <(0,1)> has order 3^40 and <(1,0)> order 5^9: the walk over their
        # powers is refused before it starts
        (["analyze", "M:7,1,3,40,2", "--element", "(0,1)"], "12157665459056928801 powers"),
        (["analyze", "M:5,9,2,1,1953124", "--element", "(1,0)"], "1953125 powers"),
        # q^b = 3^30000000 is refused from bit lengths, before it is computed
        (["analyze", "M:5,1,3,30000000,2"], "q^b = 3^30000000 exceeds the limit of 1024 bits"),
        # 125 has order 2^30 mod p = 3 * 2^30 + 1: its powers are not stored
        (["analyze", "M:3221225473,1,2,30,125", "--element", "(1,0)"], "1073741824 powers of r = 125"),
        # refused before the sieve of primes up to 10^9
        (["census", "--max-order", "2000000000"], "census to order 2000000000 exceeds the limit"),
        # refused before any group is built: the first order past 4096 is 4105
        (["census", "--max-order", "4200", "--verify-up-to", "4200"], "order 4105 exceeds threshold 4096"),
        # the theorems suite's census bound is checked before the family walk
        (["verify", "--suite", "all", "--max-order", "5000"], "census verification of order 4105 exceeds threshold 4096"),
        # and before the census enumerates every tuple to 100,000
        (["verify", "--suite", "theorems", "--max-order", "100000"], "order 4105 exceeds threshold 4096"),
        # the family walked by the other suites stops at order 600, but they
        # reject the same bounds, before the walk
        (["verify", "--suite", "closure", "--max-order", "100000"], "census verification of order 4105 exceeds"),
        (["verify", "--suite", "partitions", "--max-order", "5000"], "census verification of order 4105 exceeds"),
    ],
)
def test_exit_code_scale_error_before_the_work(capsys, argv, message):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["census", "--max-order", "10", "--verify-up-to", "-1"], "error: verify_up_to must be >= 0, got -1\n"),
        (
            ["analyze", "M:7,1,3,1,2", "--element", "(1,)"],
            "error: metacyclic coordinates must be integers, got '(1,)'\n",
        ),
        (["analyze", "S:4", "--element", "(1 a)"], "error: cycle points must be integers: '(1 a)'\n"),
        # a superscript passes str.isdigit but is no decimal digit
        (["analyze", "C:\u00b2"], "error: expected integer at position 2 in 'C' arguments\n"),
    ],
)
def test_exit_code_usage_error_is_worded(capsys, argv, message):
    started = time.perf_counter()
    assert run(capsys, *argv) == (2, "", message)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ["export", "C:4", "--output", str(d / "missing" / "x")],
        lambda d: ["analyze", "D:3", "--dot", str(d), "--json", "--stable"],
        # an empty path is a path that cannot be written, not a missing one
        lambda d: ["export", "D:3", "--output", ""],
        lambda d: ["analyze", "D:3", "--dot", ""],
    ],
    ids=[
        "export into a missing directory",
        "analyze --dot onto a directory",
        "export to an empty path",
        "analyze --dot to an empty path",
    ],
)
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv(tmp_path))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_huge_lazy_metacyclic_identity_is_not_factored(capsys):
    # p = 2^61 - 1: the star-set shortcut reads the order's bits instead of
    # factoring the order
    started = time.perf_counter()
    code, out, err = run(
        capsys,
        "analyze",
        "M:2305843009213693951,1,2,1,2305843009213693950",
        "--element",
        "(0,0)",
        "--json",
        "--stable",
    )
    assert time.perf_counter() - started < 1.0
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["is_star_class"] is True and doc["n_class_size"] == 1


def test_materialized_scale_messages(capsys):
    # one guard behind analyze, export and analyze_group, each with its own text
    from powercrit import ScaleError
    from powercrit.report import analyze_group

    assert run(capsys, "analyze", "S:8") == (
        3,
        "",
        "error: full analysis needs materialized mode: order 40320 exceeds threshold 4096; "
        "use --element for per-element queries\n",
    )
    assert run(capsys, "export", "S:8", "--format", "json") == (
        3,
        "",
        "error: graph export needs materialized mode: order 40320 exceeds threshold 4096\n",
    )
    with pytest.raises(ScaleError) as err:
        analyze_group(make_symmetric(8))
    assert str(err.value) == (
        "full analysis needs materialized mode: order 40320 exceeds threshold 4096; "
        "use a per-element query instead"
    )


def test_census_verification_guard_spares_unverified_orders(capsys):
    # orders past the threshold are listed, and only those up to
    # --verify-up-to are rebuilt
    code, out, _ = run(capsys, "census", "--max-order", "4200", "--verify-up-to", "200", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert max(l["order"] for l in lines) > 4096
    assert all((l["graph_is_critical"] is None) == (l["order"] > 200) for l in lines)


def src_env(**extra) -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH,
    and `extra` set, where a None value removes the variable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(extra)
    return {name: value for name, value in env.items() if value is not None}


@pytest.mark.parametrize(
    "argv,lines,unbuffered",
    [
        (["census", "--max-order", "3000", "--json"], 1, None),
        (["export", "D:500", "--format", "dot"], 1, None),
        (["--help"], 0, None),
        # argparse drops a failed write, which unbuffered stdout shows at once
        (["--help"], 0, "1"),
    ],
    ids=["census", "export", "help", "help unbuffered"],
)
def test_closed_stdout_exits_2_without_a_traceback(argv, lines, unbuffered):
    # census and export write more than a pipe holds, so they are still
    # writing when the reader closes it after one line; the help is written
    # to a pipe the reader closed while the interpreter was starting
    env = src_env(PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "powercrit", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    try:
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
    assert err == ""  # no traceback, and no "Exception ignored" from the flush at exit


@pytest.mark.parametrize(
    "argv", [["analyze", "D:3", "--json"], ["census", "--max-order", "10"], ["--help"]], ids=" ".join
)
def test_stdout_closed_at_start_exits_2_without_a_traceback(argv):
    # `>&-` starts the interpreter without a descriptor 1, so sys.stdout is None
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "powercrit", *argv],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (2, "")


def test_exit_code_usage(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2


def test_exit_code_scale_export(capsys):
    code, _, _ = run(capsys, "export", "S:8", "--format", "json")
    assert code == 3


def test_materialize_threshold_env(monkeypatch, capsys):
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "10")
    # table-backed construction shares the threshold
    code, _, err = run(capsys, "analyze", "C:12")
    assert code == 3 and "threshold 10" in err
    # the metacyclic backend needs no table: lazy element queries still work
    code, _, err = run(capsys, "analyze", "M:5,2,2,2,7")
    assert code == 3 and "threshold 10" in err
    code, out, _ = run(capsys, "analyze", "M:5,2,2,2,7", "--element", "(1,0)", "--json", "--stable")
    assert code == 0
    doc = json.loads(out)
    assert doc["element_order"] == 25 and doc["is_critical"] is True


def test_materialize_threshold_env_malformed(monkeypatch, capsys):
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "abc")
    for argv in (["analyze", "D:5"], ["analyze", "S:8", "--element", "(1 2 3)"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: POWERCRIT_MAX_MATERIALIZE must be an integer, got 'abc'\n"


# -- the JSON byte contract ------------------------------------------------------------

# SHA-256 of stdout, recorded before the indent-2 writer replaced json.dumps
GOLDEN = {
    ("analyze", "D:15", "--json", "--stable"): "88826cb497d548bab4bb4a0d591e9bcce58d1a6f3e0f2ec361c9ad30ddd7bd8c",
    ("analyze", "Q:4", "--json", "--stable"): "486738d73fbbb98f1a27fdad32c96a1cad4933acf4f1df68815d1ba4b56a3526",
    ("analyze", "M:5,2,2,2,7", "--json", "--stable"): "32e2d4b4b1d79e3589785fe3b059863d83e5ab76f0ca8b9ef6356158a85c1799",
    ("analyze", "C:2 x C:6", "--json", "--stable"): "2b993a37eff04cef09ce2b12b78a91ee16ec97785c1f4a20911d8f6fd6877950",
    ("analyze", "S:4", "--json", "--stable"): "37cff1bd104da01cef903901b41c25eaa7b2d1be4af37fb8fd0a145433d43efe",
    ("analyze", "C:1", "--json", "--stable"): "fa6092a78857fab8cef333fb7eae89cfe0f574c9fe2e08223b69ae16cb668d28",
    ("export", "S:4", "--format", "json", "--graph", "enhanced"): (
        "4ad10a5ddbae7b64a7ed27dbd0bbe77df0a2379439eb5358fa0e4fb827813dc2"
    ),
    # DOT exports, recorded while the text was built whole before writing
    ("export", "D:60", "--format", "dot"): "3540a66a817de8840446a3e45d1df1460cd8b0764aee499b056c2a3c1245c799",
    ("export", "S:4", "--format", "dot", "--graph", "enhanced"): (
        "25a4ae6f9700a2138ba7dc0d8a5aa55291f257d4e14429229b98279eaab51e0b"
    ),
    # the benchmark's analyze groups, at the materialization threshold
    ("analyze", "C:4096", "--json", "--stable"): "95d806531558672800e839cfb4b9a12cb52a82a4f03a79f83dad29a9c4aa62e3",
    ("analyze", "D:2000", "--json", "--stable"): "42750fc84d6f9b90461eeac5d4eea3caec6a6da5651096ac0d16b16de04946a8",
    ("analyze", "Q:11", "--json", "--stable"): "8e07aecd9e02e8ab8c8ccfb570edaa59ca4f0cb7e80dd5a58e7565bcd119d590",
    ("analyze", "C:2 x D:1000", "--json", "--stable"): (
        "05452ac591b4e4f314b457b84770de8b28ddf71d3c0b61234ec1be18d45798fa"
    ),
    ("analyze", "M:17,2,2,2,38", "--json", "--stable"): (
        "c104ccf9653e451e1649de18e3e17cb6df0d480ca98687776a77e167a7c2ed2d"
    ),
    # materialized element queries at the threshold, each drawing its own
    # class's record alone: the first, second and last classes
    ("analyze", "D:2000", "--element", "0", "--json", "--stable"): (
        "ed1d1465ee83a5c2dca743c71b657f12c9f9217071796948931a24d22d1c7462"
    ),
    ("analyze", "D:2000", "--element", "1", "--json", "--stable"): (
        "67c791f147b1a5e515f118a7436a59dd1d1edcd35e48dc708459b44d7218399a"
    ),
    ("analyze", "D:2000", "--element", "3999", "--json", "--stable"): (
        "5b726d92181ec3d31e8e6584ab56fcefd62fa0cb31430229fca273f78450f3fe"
    ),
    ("analyze", "C:2 x D:1000", "--element", "3999", "--json", "--stable"): (
        "bed1b582a9db0ab97342cbb9e25c9fd1807af69576778e6ebcafcdc92bea01d7"
    ),
    # lazy element queries above the threshold; the two S:8 ones are the
    # benchmark's element queries, unconjugated
    ("analyze", "S:8", "--element", "(1 2 3 4 5 6 7 8)", "--json", "--stable"): (
        "e6641d82235a2b9951f8cc5bf6d282ecd73d3facfe40ccb5259aa74519919df4"
    ),
    ("analyze", "S:8", "--element", "(1 2 3)(4 5 6 7 8)", "--json", "--stable"): (
        "a4955a2da9765d4e8c2bbbe158ca4e34c2319153bbf8a9d9a9d9592840f543cc"
    ),
    ("analyze", "S:9", "--element", "(1 2)", "--json", "--stable"): (
        "927ee1e58d42e1551d6ef38c5a51b2727720f1c52b1c8b9999bfe80ca0516dec"
    ),
    ("analyze", "S:11", "--element", "(1 2 3)(4 5 6 7 8)", "--json", "--stable"): (
        "b8207215906f50adfc218c6444f7d81f01faa1d1fbf30a62549df9de35bdfb37"
    ),
    # walks with several heads and fixed points: the twin-power walk over
    # C(x^2) of the 4-cycle has 8 heads times 7! tails
    ("analyze", "S:11", "--element", "(1 2 3 4)", "--json", "--stable"): (
        "f6789fcec7ce8c2c21833bfab566174669f824d4082892d11d2a9abc96e57fc0"
    ),
    ("analyze", "S:11", "--element", "(1 2)(3 4)", "--json", "--stable"): (
        "11335af033a4ad79d02d3a914464d6a105409aaa61b9a9831f357c18b3115fbb"
    ),
    ("analyze", "M:17,2,2,4,38", "--element", "(1,0)", "--json", "--stable"): (
        "eb28f3e4d7977382e5573aca711d4f48bb1feb2e8746c85ff94b254388b8cc80"
    ),
    # census listings, recorded while the enumeration still tried every prime q
    ("census", "--max-order", "1200", "--verify-up-to", "1200", "--all-r", "--json"): (
        "fa0214f06770455f7dfb092a5e916b1b5f547c47bb913e0da49b2b4ae849f6c8"
    ),
    ("census", "--max-order", "5000"): "106f0fbe368b30811d3469e0d3f9cdc2ad6fdb65fd5351ea130936feac704c45",
    ("census", "--max-order", "10000", "--all-r", "--json"): (
        "ad4ede4d8ca67990d40abf7f5e73a22a5582d8702968d3effdb25cf38fb10645"
    ),
    # human-readable analyze output, recorded at 8c44011: a plain group, the
    # Frobenius line and compound params, a partition, the obstruction
    # line, the trivial group and a lazy element
    ("analyze", "D:15", "--stable"): "1d6fbb6f3fe407e07ca9518dc42bea8ad4515f8a7426bedd50867adfc8ed52b9",
    ("analyze", "M:5,2,2,2,7", "--stable"): "b5fe654706682e1319f2ea3354e3f5686afdd224e32597e545a229015e616eac",
    ("analyze", "S:4", "--stable"): "f7455c52dcd5b9b3acb02315ab7de12d2d5a30ffdc019978980c6926dafb22d2",
    ("analyze", "Q:4", "--stable"): "75e9766bf699cfeb200c591ee58531ac8f52630cb2d31788ed651ea792173b83",
    ("analyze", "C:1", "--stable"): "1c6c825c554e1344cfa9b1d4c416fa59e9da64664c30738cad050728809eea28",
    ("analyze", "S:8", "--element", "(1 2 3)(4 5 6 7 8)", "--stable"): (
        "7191e8119f1d010fec448064eaa6b0d0b21359cbb9bedf75f9fa4412e7fc190c"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_payload_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


# SHA-256 of the element payloads of S_k, one per cycle type, concatenated
# in the order integer_partitions lists the types; CI pins S_11 the same way
CYCLE_TYPE_DIGESTS = {
    9: "468d47017cc6a135406050509fd598b2de88637d0c695ad6542afd0ee9ccd936",
    10: "110725fd20073a9b9f9fa39a5c4f46111fddfc086a7d6e363c6cd223d4763166",
}


@pytest.mark.parametrize("degree", sorted(CYCLE_TYPE_DIGESTS))
def test_every_cycle_type_payload_is_pinned(capsys, degree):
    digest = hashlib.sha256()
    for parts in integer_partitions(degree):
        code, out, _ = run(capsys, "analyze", f"S:{degree}", "--element", cycle_type_label(parts), "--json", "--stable")
        assert code == 0, parts
        digest.update(out.encode())
    assert digest.hexdigest() == CYCLE_TYPE_DIGESTS[degree]


def test_plain_command_lines_do_not_import_argparse():
    # the GOLDEN lines and the four command shapes of bench/run.py are read
    # from the table; argparse would add milliseconds to each bench call
    lines = [*GOLDEN, *(
        ["census", "--max-order", "300", "--verify-up-to", "300", "--all-r", "--json"],
        ["analyze", "C:4096", "--json", "--stable"],
        ["analyze", "S:8", "--element", "(1 5 2)(3 8 4 7 6)", "--json", "--stable", "--workers", "1"],
        ["verify", "--suite", "all", "--max-order", "300"],
    )]
    probe = (
        "import json, sys\n"
        "from powercrit.cli import parse_args\n"
        "for argv in json.load(sys.stdin):\n"
        "    parse_args(argv)\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], input=json.dumps(lines), env=src_env(),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out == "[]\n"


def oracle_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_writer_matches_json_on_analyze_and_element_payloads():
    for group in builtin_family(300):
        doc = analyze_group(group)
        assert _dump(doc) == oracle_dump(doc), group.descriptor
        for ms in (0.0, 12.345, 1e-05, 86400000.5):
            doc["timing_ms"] = ms
            assert _dump(doc) == oracle_dump(doc), (group.descriptor, ms)
    for spec, element in (
        ("S:8", "(1 2 3)(4 5 6 7 8)"),
        ("S:4", "(1 2)"),
        ("S:4", "()"),
        ("M:5,2,2,2,7", "(1,0)"),
        ("D:15", "16"),
    ):
        doc = element_report(parse_group_spec(spec), element)
        assert _dump(doc) == oracle_dump(doc), (spec, element)


@pytest.mark.parametrize("spec", ["S:4", "D:15"])
@pytest.mark.parametrize("kind", ["power", "enhanced"])
def test_writer_matches_json_on_graph_exports(spec, kind):
    doc = export_json_graph(PowerGraph(parse_group_spec(spec)), kind)
    assert _dump(doc) == oracle_dump(doc)


TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u20ac\U0001d11e", "\ud800", "a\nb\tc"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
    | TEXT
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_writer_matches_json_on_generated_documents(doc):
    assert _dump(doc) == oracle_dump(doc)


def test_writer_hands_other_values_to_json():
    # keys json converts, tuples as arrays, subclasses: json's own text
    others = ({"a": {2: "x", 1: [True]}}, {"a": [{2.5: 1, 0.5: {}}]}, {None: 1}, {"t": (1, (2,))}, [0.5])
    for doc in others:
        assert _dump(doc) == oracle_dump(doc)
    for doc in ({"a": object()}, {"a": {1: 2, "b": 3}}, [{1, 2}]):
        with pytest.raises(TypeError):
            oracle_dump(doc)
        with pytest.raises(TypeError):
            _dump(doc)
