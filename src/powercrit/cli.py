"""Command-line surface: analyze, census, verify, export.

COMMANDS is the one table of the commands, their options, defaults and
help; parse_args reads a command line against it.  An option takes its
value as the next token or after ``=`` (``--max-order=30``), and a long
option may be shortened to any unique prefix (``--max 30 --js``).
``powercrit --help`` lists the commands and ``powercrit <cmd> --help``
the options of one.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage/parse error, 3 scale/resource error.  Output that cannot be
written is exit 2 as well; a reader that closes stdout early (``| head
-1``) ends the run with exit 2 and no traceback.  JSON payloads are
key-sorted and carry no timestamps, so identical invocations are
byte-identical; --stable additionally drops the timing field.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
from itertools import islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterable, NoReturn

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




# -- the command line ------------------------------------------------------------

# Each command: (handler, help line, help of its group-spec positional or
# None when it takes none, options).  Each option maps its attribute name
# to (default, help).  A bool default makes a flag, an int default takes
# int(), a tuple default takes one of its members and starts at the
# first, and a None default takes any text.  A None help hides the option.
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

_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$").match  # argparse's test, kept exactly


def parse_args(argv=None) -> SimpleNamespace:
    """Read `argv` (default ``sys.argv[1:]``) against COMMANDS, accepting
    and rejecting what the argparse parser it replaced did, except that
    ``--name=--`` gives the option the text ``--`` (argparse gave it []).

    The first token that is not an option names the command, exactly.
    Options and the spec then come in any order: ``--name value`` and
    ``--name=value`` both work, the last repeat wins, and a long option may
    be shortened to any unique prefix.  A token starting with ``-`` is an
    option unless it is ``-``, a negative number or holds a space, and
    ``--`` ends the options.  ``-h``/``--help`` prints help on stdout and
    raises SystemExit(0); any other error prints the usage line and the
    error on stderr and raises SystemExit(2).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    unknown = []
    for i, token in enumerate(argv):
        read = None if token == "--" else _read_option(token, _HELP, None)
        if read is None:
            break
        if read[0] is None:
            unknown.append(token)
        else:
            _help(None, *read)
    else:
        _fail(None, "the following arguments are required: command")
    if argv[i] not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {argv[i]!r} (choose from {choices})")
    args = _parse_command(argv[i], argv[i + 1 :])
    if unknown:
        _fail(None, "unrecognized arguments: " + " ".join(unknown))
    return args


def _parse_command(command: str, argv: list[str]) -> SimpleNamespace:
    _, _, spec_help, options = COMMANDS[command]
    attrs = {"--" + name.replace("_", "-"): name for name in options}
    names = (*_HELP, *attrs)
    # every token before `--` is read before any is acted on, so an
    # ambiguous prefix is an error even after -h, as it was with argparse
    end = argv.index("--") if "--" in argv else len(argv)
    reads = [_read_option(token, names, command) for token in argv[:end]]
    args = SimpleNamespace(command=command)
    for name, (default, _) in options.items():
        setattr(args, name, default[0] if type(default) is tuple else default)
    spec, extras, i = None, [], 0
    while i < end:
        token, read = argv[i], reads[i]
        i += 1
        if read is None:
            if spec_help and spec is None:
                spec = i - 1
            else:
                extras.append(token)
            continue
        option, value = read
        if option is None:
            extras.append(token)
            continue
        if option in _HELP:
            _help(command, option, value)
        default = options[attrs[option]][0]
        if type(default) is bool:
            if value is not None:
                _fail(command, f"argument {option}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            if i == end or reads[i] is not None:
                _fail(command, f"argument {option}: expected one argument")
            value, i = argv[i], i + 1
        if type(default) is int:
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"argument {option}: invalid int value: {value!r}")
        elif type(default) is tuple and value not in default:
            choices = ", ".join(map(repr, default))
            _fail(command, f"argument {option}: invalid choice: {value!r} (choose from {choices})")
        setattr(args, attrs[option], value)
    if end < len(argv):
        # `--` is dropped when it comes just before the spec or just after it
        rest = argv[end + 1 :]
        if spec_help and spec is None and rest:
            spec, extras = end + 1, extras + rest[1:]
        elif spec == end - 1:
            extras += rest
        else:
            extras += argv[end:]
    if spec_help:
        if spec is None:
            _fail(command, "the following arguments are required: spec")
        args.spec = argv[spec]
    if extras:
        _fail(command, "unrecognized arguments: " + " ".join(extras))
    return args


def _read_option(token: str, names: tuple[str, ...], command: str | None):
    """How argparse read one token before ``--``: None for a positional,
    else (the option it names, None when it names none; the text after its
    ``=``, or for ``-h`` after the ``h``, None when there is none)."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        hits = [n for n in names if n.startswith(name)]
        value = value if eq else None
    else:  # one dash: only -h, which takes the rest of the token as its value
        hits, value = (["-h"], token[2:]) if token[1] == "h" else ([], None)
    if len(hits) > 1:
        _fail(command, f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0], value
    if _NEGATIVE(token) or " " in token:
        return None
    return None, None


def _help(command: str | None, option: str, value: str | None) -> NoReturn:
    """Print the help of `command` (of powercrit itself for None) and exit 0."""
    # argparse read "-hh" and "-h=h" as -h given twice
    if value is not None and (option == "--help" or not value or value.strip("h")):
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    if command is None:
        rows = [(name, line) for name, (_, line, _, _) in COMMANDS.items()]
        about = (
            "Power graphs of finite groups: twin classes, criticality, cyclic partitions\n"
            "and the metacyclic Frobenius census.  Run 'powercrit COMMAND --help' for the\n"
            "options of a command."
        )
    else:
        _, about, spec_help, options = COMMANDS[command]
        rows = [("spec", spec_help)] if spec_help else []
        rows += [(_syntax(name, default), text) for name, (default, text) in options.items() if text]
    rows.append(("-h, --help", "show this help message and exit"))
    lines = [_usage(command), "", about, ""]
    for left, text in rows:  # help text from column 24, below a longer option
        lines += [f"  {left:<22}{text}"] if len(left) < 21 else [f"  {left}", " " * 24 + text]
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    raise SystemExit(EXIT_OK)


def _fail(command: str | None, message: str) -> NoReturn:
    prog = "powercrit" if command is None else f"powercrit {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: powercrit [-h] {" + ",".join(COMMANDS) + "} ..."
    _, _, spec_help, options = COMMANDS[command]
    words = [f"[{_syntax(name, default)}]" for name, (default, text) in options.items() if text]
    return " ".join(["usage: powercrit", command, "[-h]", *words, *(["spec"] if spec_help else [])])


def _syntax(name: str, default) -> str:
    option = "--" + name.replace("_", "-")
    if type(default) is bool:
        return option
    if type(default) is int:
        return option + " N"
    if type(default) is tuple:
        return option + " {" + ",".join(default) + "}"
    return f"{option} {name.upper()}"


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        code = COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # help, or a usage error
        return exc.code
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull, so that the
        # flush at exit has somewhere to put what is still buffered.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # None, or a stream with no descriptor
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
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
