import pytest

from powercrit import PowerGraph, make_cyclic
from powercrit.verify import SUITE_NAMES, SuiteResult, builtin_family, run_suites, suite_closure


def test_builtin_family_respects_max_order():
    family = builtin_family(50)
    assert family and all(g.order <= 50 for g in family)
    descriptors = {g.descriptor for g in family}
    assert "C:50" in descriptors and "D:25" in descriptors and "S:4" in descriptors
    assert "Q:5" in descriptors and "C:7 x C:7" in descriptors
    assert any(d.startswith("M:") for d in descriptors)


def test_run_suites_all_names():
    results = run_suites(["all"], 48)
    assert [r.name for r in results] == list(SUITE_NAMES)
    for res in results:
        assert res.checks > 0 and res.passed, (res.name, res.failures[:3])


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["bogus"], 24)


def test_check_builds_callable_message_only_on_failure():
    res = SuiteResult("t")
    res.check(True, lambda: pytest.fail("message built for a passing check"))
    res.check(False, lambda: "lazy")
    res.check(False, "eager")
    assert res.checks == 3 and res.failures == ["lazy", "eager"]


def test_closure_suite_failure_text(monkeypatch):
    calls = []

    def empty_closure(graph, xs):
        calls.append(sorted(xs))
        return frozenset()

    monkeypatch.setattr(PowerGraph, "closure", empty_closure)
    res = suite_closure([make_cyclic(5)], subsets=20)
    # three closures per subset: xs, its closure, a superset; with every
    # closure empty, extensivity and the star law fail on each non-empty xs
    expected = []
    for xs in calls[::3]:
        if xs:
            expected += [f"C:5: closure not extensive on {xs}", f"C:5: closure misses the star set on {xs}"]
    assert expected and res.failures == expected
