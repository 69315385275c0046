"""Command-line surface: analyze, census, verify, export.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage/parse error, 3 scale/resource error.  JSON payloads are key-sorted
and carry no timestamps, so identical invocations are byte-identical;
--stable additionally drops the timing field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .errors import GroupSpecError, ResourceLimitError, ScaleError, SettingError
from .groupspec import parse_group_spec
from .power_graph import PowerGraph, export_dot, export_json_graph
from .report import (
    ANALYSIS_REPORT_SCHEMA,
    CENSUS_LINE_SCHEMA,
    ELEMENT_REPORT_SCHEMA,
    GRAPH_EXPORT_SCHEMA,
    analyze_group,
    census_json_line,
    element_report,
    validate_document,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_SCALE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powercrit",
        description="Power graphs of finite groups: twin classes, criticality, "
        "cyclic partitions and the metacyclic Frobenius census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify one group (or one element of it)")
    p.add_argument("spec", help="group spec, e.g. 'D:15', 'M:5,2,2,2,7', 'C:2 x C:3'")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT rendering of the power graph")
    p.add_argument("--element", metavar="DESC", help="single-element report (works at lazy scale)")
    p.add_argument("--stable", action="store_true", help="drop timing for golden-file comparison")
    # Lazy queries walk a centralizer instead of the whole group, so there
    # is no scan left to spread over processes.  The flag is still accepted,
    # and ignored, so that existing command lines keep working.
    p.add_argument("--workers", type=int, default=0, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("census", help="enumerate metacyclic parameter tuples")
    p.add_argument("--max-order", type=int, default=100)
    p.add_argument("--verify-up-to", type=int, default=0,
                   help="rebuild groups up to this order and compare graph criticality")
    p.add_argument("--all-r", action="store_true", help="list every well-defined r, not just the least")
    p.add_argument("--json", action="store_true", help="one JSON object per line")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", choices=("closure", "criticality", "partitions", "theorems", "all"),
                   default="all")
    p.add_argument("--max-order", type=int, default=120,
                   help="largest group order; the closure, criticality and partitions family "
                   "stops at order 600 (C_n to n = 120, D_n to n = 60)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="export a graph as DOT or JSON")
    p.add_argument("spec")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--graph", choices=("power", "enhanced"), default="power")
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (GroupSpecError, SettingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScaleError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE


def _dump(doc: dict) -> str:
    """`doc` as indent-2 JSON: the bytes of
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, exactly.

    With an indent, json.dumps runs CPython's pure-Python encoder (the C
    one serves only ``indent=None``), so the common types are written
    here: dicts with str keys in sorted key order, lists, each member on
    its own line two spaces deeper with ``","`` ending all but the last
    and ``": "`` after a key, ``{}`` and ``[]`` when empty, str through
    ``encode_basestring_ascii``, int through ``int.__repr__``, and
    ``true``, ``false``, ``null``.  Anything else, floats such as
    ``timing_ms`` and dicts with other keys included, goes through
    json.dumps itself: NaN is spelled as json spells it, and a value json
    cannot encode raises its ``TypeError``.
    """
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, newline: str, out: list[str]) -> None:
    """Append `x` as indent-2 JSON whose lines start with `newline`."""
    kind = type(x)
    if kind is str:
        out.append(encode_basestring_ascii(x))
    elif kind is int:
        out.append(int.__repr__(x))
    elif kind is dict and x:
        inner, open_dict, _, sep, close_dict, _ = _layout(newline)
        start, lead = len(out), open_dict
        for key in sorted(x):
            if type(key) is not str:  # json's own key conversions
                del out[start:]
                out.append(json.dumps(x, sort_keys=True, indent=2).replace("\n", newline))
                return
            out.append(lead)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(x[key], inner, out)
            lead = sep
        out.append(close_dict)
    elif kind is list and x:
        inner, _, open_list, sep, _, close_list = _layout(newline)
        lead = open_list
        for item in x:
            out.append(lead)
            _write(item, inner, out)
            lead = sep
        out.append(close_list)
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif x is None:
        out.append("null")
    else:
        out.append(json.dumps(x, sort_keys=True, indent=2).replace("\n", newline))


@functools.cache
def _layout(newline: str) -> tuple[str, str, str, str, str, str]:
    """The strings that open, separate and close the members of a container
    whose own lines start with `newline`, built once per depth."""
    inner = newline + "  "
    return inner, "{" + inner, "[" + inner, "," + inner, newline + "}", newline + "]"


def cmd_analyze(args) -> int:
    group = parse_group_spec(args.spec)
    started = time.perf_counter()
    if args.element is not None:
        doc = element_report(group, args.element)
        schema = ELEMENT_REPORT_SCHEMA
    else:
        group.poset("full analysis", "; use --element for per-element queries")
        graph = PowerGraph(group)
        doc = analyze_group(group, graph)
        schema = ANALYSIS_REPORT_SCHEMA
        if args.dot:
            _write_text(args.dot, export_dot(graph, "power"))
    if not args.stable:
        doc["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    validate_document(doc, schema)
    if args.json:
        sys.stdout.write(_dump(doc))
    else:
        _print_human(doc)
    return EXIT_OK


def _print_human(doc: dict) -> None:
    out = sys.stdout
    out.write(f"group {doc['group']}  order {doc['order']}\n")
    if "element" in doc:
        out.write(
            f"element {doc['element']}  order {doc['element_order']}\n"
            f"  twin class size {doc['n_class_size']}  kind {doc['kind']}  "
            f"critical {doc['is_critical']}  closure size {doc['closure_size']}\n"
            f"  maximal {doc['is_maximal']}  "
            f"generator class size {doc['diamond_class_size']}\n"
        )
        return
    out.write(f"primes {doc['pi']}  eppo {doc['is_eppo']}\n")
    out.write(f"star vertices: {doc['star']['size']} ({', '.join(doc['star']['members'])})\n")
    gk = doc["group_kind"]
    out.write(
        f"group flags: critical={gk['is_critical_group']} "
        f"plain={gk['is_plain_group']} compound={gk['is_compound_group']}\n"
    )
    part = doc["partition"]
    if part["exists"]:
        orders = part["component_orders"]
        out.write(f"cyclic partition: {len(orders)} components, orders {orders}\n")
    elif part["obstruction"] is not None:
        ob = part["obstruction"]
        out.write(
            f"no cyclic partition: <{ob['first']}> and <{ob['second']}> share {ob['shared']}\n"
        )
    if doc["frobenius"] is not None:
        f = doc["frobenius"]
        out.write(f"frobenius structure: (p,a,q,b) = ({f['p']},{f['a']},{f['q']},{f['b']})\n")
    out.write("classes (representative / size / kind / params / critical / closure):\n")
    for c in doc["classes"]:
        params = c["params"]
        ptxt = f"(p={params['p']},r={params['r']},s={params['s']})" if params else "-"
        star = " [star]" if c["is_star_class"] else ""
        out.write(
            f"  {c['representative']:>20}  {c['size']:>5}  {c['kind']:>8}  {ptxt:>14}  "
            f"{str(c['is_critical']):>5}  {c['closure_size']:>5}{star}\n"
        )
    if "timing_ms" in doc:
        out.write(f"timing: {doc['timing_ms']} ms\n")


def cmd_census(args) -> int:
    from .frobenius import census

    entries = census(args.max_order, verify_up_to=args.verify_up_to, all_r=args.all_r)
    if args.json:
        for e in entries:
            line = census_json_line(e)
            validate_document(line, CENSUS_LINE_SCHEMA)
            sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    else:
        header = f"{'p':>5} {'a':>2} {'q':>3} {'b':>2} {'r':>5} {'order':>6}  flags (eppo/frob/crit)  graph"
        sys.stdout.write(header + "\n")
        for e in entries:
            m, f = e.params, e.flags
            flags = f"{_yn(f.eppo)}/{_yn(f.frobenius)}/{_yn(f.critical)}"
            graph = "-" if e.graph_is_critical is None else (
                f"critical={_yn(e.graph_is_critical)} "
                + ("ok" if e.graph_agrees else "MISMATCH")
            )
            sys.stdout.write(
                f"{m.p:>5} {m.a:>2} {m.q:>3} {m.b:>2} {m.r:>5} {m.order:>6}  "
                f"{flags:>21}  {graph}\n"
            )
        criticals = [e for e in entries if e.flags.critical]
        sys.stdout.write(
            f"{len(entries)} tuples, {len(criticals)} critical "
            f"(orders {sorted({e.params.order for e in criticals})})\n"
        )
    return EXIT_VERIFY_FAIL if any(e.graph_agrees is False for e in entries) else EXIT_OK


def _yn(b: bool) -> str:
    return "y" if b else "n"


def cmd_verify(args) -> int:
    from .verify import run_suites

    results = run_suites([args.suite], args.max_order)
    failed = False
    for res in results:
        status = "pass" if res.passed else "FAIL"
        sys.stdout.write(f"suite {res.name}: {status} ({res.checks} checks, {len(res.failures)} failures)\n")
        for line in res.failures:
            sys.stdout.write(f"  counterexample: {line}\n")
        failed = failed or not res.passed
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_export(args) -> int:
    group = parse_group_spec(args.spec)
    group.poset("graph export")
    graph = PowerGraph(group)
    if args.format == "dot":
        chunks = export_dot(graph, args.graph)
    else:
        doc = export_json_graph(graph, args.graph)
        validate_document(doc, GRAPH_EXPORT_SCHEMA)
        chunks = (_dump(doc),)
    if args.output:
        _write_text(args.output, chunks)
    else:
        _write_batched(sys.stdout, chunks)
    return EXIT_OK


def _write_batched(out, chunks: Iterable[str]) -> None:
    """Write `chunks` as they come, joined 8192 at a time (one write per
    DOT line is slow on a pipe)."""
    chunks = iter(chunks)
    while joined := "".join(islice(chunks, 8192)):
        out.write(joined)


def _write_text(path: str, chunks: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            _write_batched(fh, chunks)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc.strerror or exc}") from None


if __name__ == "__main__":
    sys.exit(main())
