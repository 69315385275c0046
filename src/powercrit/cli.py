"""Command-line surface: analyze, census, verify, export.

COMMANDS is the one table of the commands, their options, defaults and
help.  parse_args reads a plain command line (exact command, the spec,
long options with valid values) from the table itself, and hands every
other line, help included, to an argparse parser built from the same
table.  An option takes its value as the next token or after ``=``
(``--max-order=30``), and a long option may be shortened to any unique
prefix (``--max 30 --js``).  ``powercrit --help`` lists the commands and
``powercrit <cmd> --help`` the options of one.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage/parse error, 3 scale/resource error.  Output that cannot be
written is exit 2 as well; a reader that closes stdout early (``| head
-1``) ends the run with exit 2 and no traceback.  JSON payloads are
key-sorted and carry no timestamps, so identical invocations are
byte-identical; --stable additionally drops the timing field.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time
from itertools import islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterable

from .errors import GroupSpecError, ResourceLimitError, ScaleError, SettingError
from .groups import parse_decimal
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
    if args.dot is not None and args.element is not None:
        raise ValueError("--dot draws the whole power graph; it cannot be combined with --element")
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
        if args.dot is not None:
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
    if args.output is not None:
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


# -- the command line ------------------------------------------------------------

# Each command: (handler, help line, help of its group-spec positional or
# None when it takes none, options).  Each option maps its attribute name
# to (default, help).  A bool default makes a flag, an int default takes
# an ASCII decimal (groups.parse_decimal), a tuple default takes one of
# its members and starts at the first, and a None default takes any
# text.  A None help hides the option.
COMMANDS = {
    "analyze": (
        cmd_analyze,
        "classify one group (or one element of it)",
        "group spec, e.g. 'D:15', 'M:5,2,2,2,7', 'C:2 x C:3'",
        {
            "json": (False, "emit the JSON report"),
            "dot": (None, "also write a DOT rendering of the power graph to this path"),
            "element": (None, "single-element report (works at lazy scale)"),
            "stable": (False, "drop timing for golden-file comparison"),
            # Lazy queries walk a centralizer instead of the whole group, so
            # there is no scan left to spread over processes.  The option is
            # still accepted, and ignored, so that existing command lines
            # keep working.
            "workers": (0, None),
        },
    ),
    "census": (
        cmd_census,
        "enumerate metacyclic parameter tuples",
        None,
        {
            "max_order": (100, "largest group order to list"),
            "verify_up_to": (0, "rebuild groups up to this order and compare graph criticality"),
            "all_r": (False, "list every well-defined r, not just the least"),
            "json": (False, "one JSON object per line"),
        },
    ),
    "verify": (
        cmd_verify,
        "run the property suites",
        None,
        {
            "suite": (("all", "closure", "criticality", "partitions", "theorems"), "the suite to run"),
            "max_order": (
                120,
                "largest group order; the closure, criticality and partitions family "
                "stops at order 600 (C_n to n = 120, D_n to n = 60)",
            ),
        },
    ),
    "export": (
        cmd_export,
        "export a graph as DOT or JSON",
        "group spec, as for analyze",
        {
            "format": (("dot", "json"), "output format"),
            "graph": (("power", "enhanced"), "the power graph or the enhanced power graph"),
            "output": (None, "write here instead of stdout"),
        },
    ),
}


def parse_args(argv=None) -> SimpleNamespace:
    """Read `argv` (default ``sys.argv[1:]``) against COMMANDS.

    A plain line is read from the table, without importing argparse: the
    exact command name, the spec as the one token not starting with ``-``,
    and long options named in full or by a unique prefix, each followed by
    a valid value as the next token (not starting with ``-``) or after
    ``=``.  Every other line, ``-h`` and ``--`` included, is read by an
    argparse parser built from COMMANDS, which prints help and raises
    SystemExit(0), or prints a usage error and raises SystemExit(2).
    ``--name=--`` gives the option the text ``--`` (argparse gave it []).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    return _read_with_argparse(argv) if args is None else args


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """`argv` read from COMMANDS, or None when it is not a plain line."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, _, spec_help, options = COMMANDS[argv[0]]
    args = SimpleNamespace(command=argv[0])
    for name, (default, _) in options.items():
        setattr(args, name, default[0] if type(default) is tuple else default)
    flags = {"--help": None, **{"--" + name.replace("_", "-"): name for name in options}}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if spec_help is None or hasattr(args, "spec"):
                return None
            args.spec = token
            continue
        if token[:2] != "--":
            return None
        flag, eq, value = token.partition("=")
        hits = [flag] if flag in flags else [f for f in flags if f.startswith(flag)]
        if len(hits) != 1 or flags[hits[0]] is None:
            return None
        name = flags[hits[0]]
        default = options[name][0]
        if type(default) is bool:
            value = None if eq else True
        elif eq:
            value = _checked(default, value)
        else:
            value = next(tokens, "-")
            value = None if value[:1] == "-" else _checked(default, value)
        if value is None:
            return None
        setattr(args, name, value)
    return args if spec_help is None or hasattr(args, "spec") else None


def _checked(default, value: str):
    """`value` as an option with `default` takes it, or None when invalid."""
    if type(default) is int:
        try:
            return parse_decimal(value)
        except ValueError:
            return None
    return None if type(default) is tuple and value not in default else value


def _read_with_argparse(argv: list[str]) -> SimpleNamespace:
    import argparse

    # wide enough that a usage line is never wrapped
    wide = functools.partial(argparse.HelpFormatter, width=1 << 16)
    parser = argparse.ArgumentParser(
        prog="powercrit",
        description="Power graphs of finite groups: twin classes, criticality, cyclic partitions and the "
        "metacyclic Frobenius census.  Run 'powercrit COMMAND --help' for the options of a command.",
        formatter_class=wide,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, line, spec_help, options) in COMMANDS.items():
        sub = commands.add_parser(command, help=line, description=line, formatter_class=wide)
        # type=int reads through parse_decimal, keeping "invalid int value"
        sub.register("type", int, parse_decimal)
        if spec_help:
            sub.add_argument("spec", help=spec_help)
        for name, (default, text) in options.items():
            flag, text = "--" + name.replace("_", "-"), argparse.SUPPRESS if text is None else text
            if type(default) is bool:
                sub.add_argument(flag, action="store_true", help=text)
            elif type(default) is tuple:
                sub.add_argument(flag, choices=default, default=default[0], help=text)
            else:
                sub.add_argument(flag, type=int if type(default) is int else None, default=default, help=text)
    # argparse writes help into a closed pipe without an error; the help is
    # collected here and written after, so that the error reaches main
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            try:
                args, extras = parser.parse_known_args(argv, SimpleNamespace())
            except IndexError:  # `-h=`, in an argparse without its explicit_arg != '' check
                parser.error("argument -h/--help: ignored explicit argument ''")
    finally:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    sub = commands.choices[args.command]
    for name, (default, _) in COMMANDS[args.command][3].items():
        if getattr(args, name) == []:  # argparse read `--name=--` as []
            value = _checked(default, "--")
            if value is None:  # the usage line above the error lists the choices
                why = "int value" if type(default) is int else "choice"
                sub.error(f"argument --{name.replace('_', '-')}: invalid {why}: '--'")
            setattr(args, name, value)
    if extras:  # parse_args' own check, made after the `--name=--` one
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    if sys.stdout is None:  # started with stdout closed (`>&-`)
        return EXIT_USAGE
    try:
        args = parse_args(argv)
        code = COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # help, or a usage error
        return exc.code
    except OSError as exc:
        # stdout cannot take the output: a reader closed the pipe, quietly,
        # or the device failed.  Point stdout at devnull, so that the flush
        # at exit has somewhere to put what is still buffered.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        with contextlib.suppress(OSError):  # a stream with no descriptor
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_USAGE
    except (GroupSpecError, SettingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScaleError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE


if __name__ == "__main__":
    sys.exit(main())
