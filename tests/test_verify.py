"""The verify registry and its one tolerance primitive."""

import sys

import numpy as np
import pytest

from dwfnet.errors import UnsupportedDimensionError
from dwfnet.ffield import SUPPORTED_DEGREES
from dwfnet.verify import SUITES, SuiteResult, run_suites

RESTRICTED = {"net-census": {1, 2}, "shortcut-reduction": {2}, "concurrence": {2}}
UNDECLARED = [
    (name, n) for name, suite in SUITES.items() for n in range(1, 6) if n not in suite.sizes
]


def test_expect_close_counts_each_entry_as_one_check():
    r = SuiteResult("s", 2)
    r.expect_close(np.zeros((3, 4)), 1e-9, "grid")
    r.expect_close(0.0, 1e-9, "scalar")
    assert r.checks == 13 and r.ok
    # the same count and line as the boolean checks it replaces
    b = SuiteResult("s", 2)
    b.expect(np.zeros((3, 4)) < 1e-9, "grid")
    b.expect(0.0 < 1e-9, "scalar")
    assert r.line() == b.line() == "PASS s (n=2): 13 checks"


@pytest.mark.parametrize("bad", [np.nan, 1e-9, 0.5], ids=["nan", "equal-to-tol", "above"])
def test_expect_close_fails_unless_every_entry_is_below_tol(bad):
    r = SuiteResult("s", 1)
    r.expect_close(np.array([0.0, bad, 1e-12]), 1e-9, "family", "net 5: ")
    assert r.checks == 3 and not r.ok
    assert r.failures == [f"net 5: family: worst {bad:.3g}, tol 1e-09"]
    assert r.line() == f"FAIL s (n=1): 3 checks [net 5: family: worst {bad:.3g}, tol 1e-09]"


def test_suites_declare_their_sizes_once():
    assert {name: set(s.sizes) for name, s in SUITES.items() if name in RESTRICTED} == RESTRICTED
    assert all(
        s.sizes == set(SUPPORTED_DEGREES) for name, s in SUITES.items() if name not in RESTRICTED
    )


@pytest.mark.parametrize("name, n", UNDECLARED, ids=[f"{s}-n{n}" for s, n in UNDECLARED])
def test_undeclared_size_is_refused_before_any_work(name, n):
    suite = SUITES[name]
    calls, caught = [], None

    def record(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(record)
    try:
        suite(n)
    except UnsupportedDimensionError as exc:
        caught = exc
    finally:
        sys.setprofile(None)
    assert str(caught) == f"suite {name} not defined at n={n}"
    assert calls == [suite.__code__]  # the registered wrapper ran, no suite body
    with pytest.raises(UnsupportedDimensionError, match=f"suite {name} not defined at n={n}"):
        run_suites(n, [name])


def test_run_suites_selects_the_declared_suites(monkeypatch):
    ran = []
    for name, suite in list(SUITES.items()):
        stub = lambda n, name=name: ran.append((name, n)) or name  # noqa: E731
        stub.sizes = suite.sizes
        monkeypatch.setitem(SUITES, name, stub)
    for n in range(1, 6):
        ran.clear()
        assert run_suites(n) == [name for name in SUITES if n in SUITES[name].sizes]
        assert not set(ran) & set(UNDECLARED)
    assert len(UNDECLARED) == 11  # net-census at n = 3..5, the two n = 2 suites at 1, 3, 4, 5
