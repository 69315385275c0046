"""The exit-code contract of ``cli.main`` on generated command lines.

Every command line ends in 0 (success), 1 (verification failure), 2
(usage or parse error) or 3 (scale or resource error), with no exception
out of ``main``, no traceback on stderr, and within two seconds.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powercrit.cli import main

# Small integers, values past the materialization threshold, and text
# that is not a decimal integer.  Atom parameters stop at 9 below the
# threshold: exporting the power graph of C:4096 or Q:12 alone outgrows
# the deadline, as its edge list does memory (the FOUND line on
# `export D:2000` in CHANGES.md).
INTEGERS = st.integers(0, 9) | st.sampled_from([4097, 10**6, 10**30])
NOT_INTEGERS = st.sampled_from(["-1", "", "x", "1.5", "²", "3 4"])


def numbers(ints=INTEGERS):
    return ints.map(str) | NOT_INTEGERS


def atoms(max_degree: int):
    """Grammar-shaped atoms; S:k is drawn with k <= max_degree or invalid."""
    degrees = st.integers(0, max_degree) | st.sampled_from([12, 10**30])
    return st.one_of(
        st.builds("{}:{}".format, st.sampled_from("CDQ"), numbers()),
        numbers(degrees).map("S:{}".format),
        st.lists(numbers(), min_size=1, max_size=6).map(lambda ns: "M:" + ",".join(ns)),
    )


def specs(max_degree: int):
    grammar = st.builds(
        lambda parts, sep: sep.join(parts),
        st.lists(atoms(max_degree), min_size=1, max_size=2),
        st.sampled_from([" x ", "x", " X ", ""]),
    )
    return grammar | st.text(max_size=16)


CYCLES = st.lists(st.lists(st.integers(-1, 10).map(str), max_size=4), max_size=3).map(
    lambda cs: "".join("(" + " ".join(c) + ")" for c in cs)
)
PAIRS = st.builds("({},{})".format, numbers(st.integers(-1, 40)), numbers(st.integers(-1, 40)))
ELEMENTS = st.one_of(CYCLES, PAIRS, st.integers(-2, 5000).map(str), st.text(max_size=12))

# Unique prefixes, a flag given a value, `--`, help and an unknown option
# put the parser's edge cases under the contract as well.
FLAGS = st.lists(
    st.sampled_from(["--json", "--stable", "--js", "--st", "--json=1", "--", "-h", "-x"]), max_size=3, unique=True
)

# An S_11 transposition takes seconds (ROADMAP item 4), so element
# queries are drawn on S:k with k <= 8 only.
ANALYZE = st.one_of(
    st.builds(lambda spec, flags: ["analyze", spec, *flags], specs(9), FLAGS),
    st.builds(lambda spec, e, flags: ["analyze", spec, "--element", e, *flags], specs(8), ELEMENTS, FLAGS),
)
EXPORT = st.builds(
    lambda spec, fmt, graph: ["export", spec, "--format", fmt, "--graph", graph],
    specs(9),
    st.sampled_from(["dot", "json"]),
    st.sampled_from(["power", "enhanced"]),
)

SMALL_BOUNDS = st.integers(-3, 40) | st.sampled_from([-100, 0])
REJECTED_BOUNDS = st.sampled_from([5000, 100000])
# Every suite rejects 5000 and 100000 through the census bound before any
# work, although the family of the closure, criticality and partitions
# suites stops at order 600.
VERIFY = st.builds(
    lambda s, n: ["verify", "--suite", s, "--max-order", str(n)],
    st.sampled_from(["closure", "criticality", "partitions", "theorems", "all"]),
    SMALL_BOUNDS | REJECTED_BOUNDS,
)
# An unverified census to 100,000 is a run of about half a minute that no
# bound rejects (MAX_CENSUS_ORDER; ROADMAP item 2), so that order is drawn
# only with a verification bound that rejects it.
CENSUS_ORDERS = st.integers(-3, 300) | st.just(5000)
CENSUS_BOUNDS = st.one_of(
    st.tuples(CENSUS_ORDERS, st.integers(-3, 300) | st.sampled_from([-100, 5000, 100000])),
    st.tuples(st.just(100000), st.sampled_from([-1, 5000, 100000])),
)
CENSUS = st.builds(
    lambda bounds, flags: ["census", "--max-order", str(bounds[0]), "--verify-up-to", str(bounds[1]), *flags],
    CENSUS_BOUNDS,
    st.lists(st.sampled_from(["--all-r", "--json"]), max_size=2, unique=True),
)
ANY_ARGV = st.lists(st.text(max_size=10), max_size=4)


@settings(max_examples=300, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(ANALYZE, EXPORT, VERIFY, CENSUS, ANY_ARGV))
def test_main_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
