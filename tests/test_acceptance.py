"""Acceptance gate: the ten headline guarantees, one test each.

Each test prints a single PASS/FAIL line (visible with pytest -s, and on
failure in the captured output).  Heavy invariant suites are shared across
criteria through session-scoped fixtures so the gate stays fast.
"""

import numpy as np
import pytest

from dwfnet import (
    build_net,
    classify_nets,
    detect_product_structure,
    enumerate_nets,
    net_context,
)
from dwfnet.verify import (
    suite_concurrence,
    suite_conjugation,
    suite_hadamard_bridge,
    suite_shortcut,
    suite_net_traces,
    suite_reduction_oracle,
    suite_wigner_roundtrip,
)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def check_suites(name, results):
    bad = [f for r in results if not r.ok for f in r.failures[:3]]
    detail = f"{sum(r.checks for r in results)} checks"
    report(name, not bad, "; ".join(bad) if bad else detail)


@pytest.fixture(scope="session")
def traces():
    return [suite_net_traces(n) for n in (1, 2, 3)]


@pytest.fixture(scope="session")
def product_forms():
    ctx = net_context(2)
    forms = {"eq6": 0, "eq7": 0, "none": 0}
    for net_id in enumerate_nets(ctx):
        forms[detect_product_structure(build_net(ctx, net_id)).form] += 1
    return forms


def test_criterion_01_net_counts():
    n1 = len(list(enumerate_nets(net_context(1))))
    n2 = len(list(enumerate_nets(net_context(2))))
    report(
        "criterion-01 net counts (8 and 1024)",
        n1 == 8 and n2 == 1024,
        f"got {n1} and {n2}",
    )


def test_criterion_02_trace_orthogonality(traces):
    # all 1032 nets at n <= 2 plus 100 sampled nets at n=3, tol 1e-9
    check_suites("criterion-02 trace orthogonality", traces)


def test_criterion_03_product_census(product_forms):
    ok = product_forms["eq6"] == 16 and product_forms["eq7"] == 16
    report(
        "criterion-03 product census (16 + 16 of 1024)",
        ok,
        f"got {product_forms}"
        + (
            ""
            if ok
            else " -- canonical field-basis choice must be revisited"
        ),
    )


def test_criterion_04_equivalence_classes():
    o1 = classify_nets(net_context(1))
    o2 = classify_nets(net_context(2))
    ok = (
        len(o1) == 2
        and all(len(v) == 4 for v in o1.values())
        and len(o2) == 64
        and all(len(v) == 16 for v in o2.values())
    )
    report(
        "criterion-04 equivalence classes (2x4 and 64x16)",
        ok,
        f"got {len(o1)} and {len(o2)} orbits",
    )


def test_criterion_05_reduction_oracle():
    # n in {2, 3}, every keep set, 25 states, >= 10 net pairs, tol 1e-10
    results = [suite_reduction_oracle(n) for n in (2, 3)]
    check_suites("criterion-05 reduction vs partial-trace oracle", results)


def test_criterion_06_shortcut_reductions():
    # all 32 product nets, 50 states, tol 1e-10
    check_suites("criterion-06 product-net shortcut reductions", [suite_shortcut(2)])


def test_criterion_07_hadamard_bridge():
    results = [suite_hadamard_bridge(n) for n in (1, 2, 3)]
    check_suites("criterion-07 Hadamard bridge", results)


def test_criterion_08_conjugation_net_independent():
    results = [suite_conjugation(n) for n in (1, 2, 3)]
    check_suites("criterion-08 F net-independence", results)


def test_criterion_09_concurrence():
    # 100 pure states x 5 nets against the density-matrix value, tol 1e-8
    check_suites("criterion-09 concurrence", [suite_concurrence(2)])


def test_criterion_10_roundtrip_properties():
    results = [suite_wigner_roundtrip(n) for n in (1, 2, 3)]
    check_suites("criterion-10 round-trip and normalization", results)
