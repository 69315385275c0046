import dataclasses
import time

import pytest

from conftest import brute_try_structure, exists_for, multiplicative_order
from powercrit import (
    MetacyclicParams,
    PowerGraph,
    census,
    classify_group,
    eppo_metacyclic_equivalence_check,
    make_cyclic,
    make_metacyclic,
    make_symmetric,
    recognize_critical_structure,
    validate,
)
from powercrit.errors import ScaleError
from powercrit.frobenius import _try_structure, census_tuples, check_census_bounds
from powercrit.numtheory import factorize, primes_upto
from powercrit.verify import builtin_family


def test_validate_minimum_critical_tuple():
    flags = validate(MetacyclicParams(5, 2, 2, 2, 7))
    assert flags.well_defined and flags.eppo and flags.frobenius and flags.critical


def test_validate_exponent_one_kernel():
    # Frobenius but not critical: a = 1
    flags = validate(MetacyclicParams(5, 1, 2, 2, 2))
    assert flags.well_defined and flags.frobenius and not flags.critical
    assert flags.eppo  # |2| mod 5 = 4 = q^b


def test_validate_frobenius_impossible_for_p7_qb4():
    # 4 does not divide 7 - 1, so no r can be Frobenius
    pa = 49
    rs = [r for r in range(2, pa) if pow(r, 4, pa) == 1]
    assert rs  # well-defined tuples do exist
    for r in rs:
        flags = validate(MetacyclicParams(7, 2, 2, 2, r))
        assert flags.well_defined and not flags.frobenius


def test_validate_inversion_action_not_critical():
    # r = 24 = -1 mod 25: well defined, but the action has order 2
    flags = validate(MetacyclicParams(5, 2, 2, 2, 24))
    assert flags.well_defined and not flags.eppo and not flags.frobenius and not flags.critical


@pytest.mark.parametrize(
    "params,reason",
    [
        (MetacyclicParams(4, 2, 2, 2, 7), "not prime"),
        (MetacyclicParams(5, 2, 5, 2, 7), "distinct"),
        (MetacyclicParams(5, 0, 2, 2, 7), ">= 1"),
        (MetacyclicParams(5, 2, 2, 2, 1), "2 <= r"),
        (MetacyclicParams(5, 2, 2, 2, 10), "divides r"),
        (MetacyclicParams(5, 2, 2, 2, 3), "not well defined"),
    ],
)
def test_validate_names_violations(params, reason):
    flags = validate(params)
    assert not flags.well_defined
    assert reason in flags.reason


# -- exists_for --------------------------------------------------------------------


def test_exists_for_examples():
    assert exists_for(5, 2, 2, 2) == 7
    assert exists_for(3, 2, 2, 2) is None  # 4 does not divide 2
    assert exists_for(3, 2, 2, 3) is None
    assert exists_for(7, 1, 2, 2) is None  # 4 does not divide 6
    r = exists_for(13, 2, 2, 2)
    assert r is not None
    assert multiplicative_order(r, 13) == 4 and pow(r, 4, 169) == 1


def test_exists_for_skips_residues_that_lift_badly():
    # |4| mod 5 = 2 but 4^2 = 16 != 1 (mod 25); the search must continue to 24
    r = exists_for(5, 2, 2, 1)
    assert r == 24
    flags = validate(MetacyclicParams(5, 2, 2, 1, r))
    assert flags.well_defined and flags.frobenius


def test_exists_for_rejects_bad_input():
    with pytest.raises(ValueError):
        exists_for(4, 2, 2, 2)
    with pytest.raises(ValueError):
        exists_for(5, 2, 5, 2)


def test_exists_for_presence_iff_divisibility():
    from powercrit.numtheory import primes_upto

    for p in primes_upto(60):
        for q, b in ((2, 2), (2, 3), (3, 2)):
            if p == q:
                continue
            r = exists_for(p, 2, q, b)
            assert (r is not None) == ((p - 1) % q**b == 0), (p, q, b)
            if r is not None:
                flags = validate(MetacyclicParams(p, 2, q, b, r))
                assert flags.well_defined and flags.frobenius


# -- recognizer ---------------------------------------------------------------------


def test_recognize_minimum_critical_group():
    fs = recognize_critical_structure(make_metacyclic(5, 2, 2, 2, 7))
    assert fs is not None
    assert (fs.p, fs.a, fs.q, fs.b) == (5, 2, 2, 2)
    assert fs.kernel.order == 25 and fs.complement.order == 4


def test_recognize_rejects_non_examples():
    assert recognize_critical_structure(make_symmetric(4)) is None
    assert recognize_critical_structure(make_cyclic(100)) is None
    # well-defined but non-Frobenius action: y^2 centralizes the kernel
    assert recognize_critical_structure(make_metacyclic(5, 2, 2, 2, 24)) is None


# -- census -----------------------------------------------------------------------------


def test_census_minimum_critical_order():
    entries = census(100, verify_up_to=100)
    crit = [e for e in entries if e.flags.critical]
    assert len(crit) == 1
    assert crit[0].params == MetacyclicParams(5, 2, 2, 2, 7)
    assert crit[0].graph_is_critical is True and crit[0].graph_agrees is True
    assert not [e for e in census(99) if e.flags.critical]


def test_census_sorted_and_verified_to_500():
    entries = census(500, verify_up_to=500, all_r=True)
    orders = [e.params.order for e in entries]
    assert orders == sorted(orders)
    assert all(e.graph_agrees is True for e in entries)
    assert sorted({e.params.order for e in entries if e.flags.critical}) == [100, 500]


def test_census_tuples_match_the_range_scan():
    # the enumeration census_tuples replaced is the oracle: every pair of
    # distinct primes, kept when some r in [2, p^a) has r^(q^b) = 1 mod p^a
    primes = primes_upto(1500)
    scanned = set()
    for p in primes:
        pa, a = p, 1
        while pa * 2 <= 3000:
            for q in primes:
                qb, b = q, 1
                while q != p and pa * qb <= 3000:
                    if any(pow(r, qb, pa) == 1 for r in range(2, pa)):
                        scanned.add((p, a, q, b))
                    qb, b = qb * q, b + 1
            pa, a = pa * p, a + 1
    tuples = list(census_tuples(3000))
    assert len(tuples) == len(set(tuples)) == len(scanned)
    assert set(tuples) == scanned


@pytest.mark.parametrize("cap", [1, 20, 100, 500])
def test_census_bounds_precheck_agrees_with_the_post_enumeration_check(monkeypatch, cap):
    # the bound check and the census both name the first listed order past the cap
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", str(cap))
    first = min(e.params.order for e in census(1000, all_r=True) if e.params.order > cap)
    message = f"census verification of order {first} exceeds threshold {cap}$"
    with pytest.raises(ScaleError, match=message):
        check_census_bounds(1000, 1000)
    check_census_bounds(1000, first - 1)
    with pytest.raises(ScaleError, match=message):
        census(1000, verify_up_to=first)


def test_census_critical_round_trip():
    for e in census(500, all_r=True):
        if not e.flags.critical:
            continue
        m = e.params
        fs = recognize_critical_structure(make_metacyclic(m.p, m.a, m.q, m.b, m.r))
        assert fs is not None and (fs.p, fs.a, fs.q, fs.b) == (m.p, m.a, m.q, m.b)


def test_validate_huge_prime_without_factoring():
    # p = 2^61 - 1: the orders of r are decided by two modular powers each
    started = time.perf_counter()
    flags = validate(MetacyclicParams(2305843009213693951, 1, 2, 1, 2305843009213693950))
    assert time.perf_counter() - started < 1.0
    assert flags.well_defined and flags.eppo and flags.frobenius and not flags.critical


def test_validate_orders_match_multiplicative_order():
    checked = 0
    for e in census(1200, all_r=True):
        if not e.flags.well_defined:
            continue
        m = e.params
        qb = m.q**m.b
        assert e.flags.eppo == (multiplicative_order(m.r, m.p**m.a) == qb), m
        assert e.flags.frobenius == (multiplicative_order(m.r, m.p) == qb), m
        checked += 1
    assert checked > 500


def _structure_pairs(groups):
    for group in groups:
        fact = factorize(group.order)
        if len(fact) == 2:
            (p, a), (q, b) = fact
            yield group, (p, a, q, b)
            yield group, (q, b, p, a)


def test_try_structure_matches_element_oracle():
    census_groups = [
        make_metacyclic(m.p, m.a, m.q, m.b, m.r)
        for m in (e.params for e in census(1200, all_r=True) if e.flags.well_defined)
    ]
    found = 0
    for group, pq in _structure_pairs(builtin_family(600) + census_groups):
        fs = _try_structure(group, *pq)
        got = None if fs is None else (fs.kernel.generator, fs.complement.generator)
        assert got == brute_try_structure(group, *pq), (group.descriptor, pq)
        found += fs is not None
    assert found > 100


# -- equivalence check ---------------------------------------------------------------------


def test_eppo_equivalence_check():
    params = MetacyclicParams(5, 2, 2, 2, 7)
    v = eppo_metacyclic_equivalence_check(params)
    assert v.applicable and v.passed is True
    # a graph handed in is classified, not rebuilt
    v = eppo_metacyclic_equivalence_check(params, PowerGraph(make_metacyclic(5, 2, 2, 2, 7)))
    assert v.applicable and v.passed is True
    # not applicable below exponent 2
    v = eppo_metacyclic_equivalence_check(MetacyclicParams(5, 1, 2, 2, 2))
    assert not v.applicable


def test_eppo_equivalence_check_negative_control():
    params = MetacyclicParams(5, 2, 2, 2, 7)
    wrong = dataclasses.replace(validate(params), frobenius=False)
    v = eppo_metacyclic_equivalence_check(params, flags=wrong)
    assert v.applicable and v.passed is False


def test_graph_criticality_both_directions():
    # critical flag true -> graph critical; false -> graph not critical
    g1 = make_metacyclic(5, 2, 2, 2, 7)
    assert classify_group(PowerGraph(g1)).is_critical_group
    g2 = make_metacyclic(5, 2, 2, 2, 24)
    assert not classify_group(PowerGraph(g2)).is_critical_group
    g3 = make_metacyclic(5, 1, 2, 2, 2)  # Frobenius but a = 1
    assert not classify_group(PowerGraph(g3)).is_critical_group
