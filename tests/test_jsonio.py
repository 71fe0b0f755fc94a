import json
import math

import numpy as np
import pytest

from dwfnet import DensityState, WignerFunction, jsonio
from dwfnet.errors import ValidationError


def test_dumps_float_precision():
    # floats are written with 17 significant digits: exact round-trip
    values = [1 / 3, 0.1 + 0.2, math.pi, 1e-300, -2.5, 0.0]
    text = jsonio.dumps({"v": values})
    back = json.loads(text)
    assert back["v"] == values


def test_dumps_rejects_non_finite():
    with pytest.raises(ValidationError):
        jsonio.dumps({"v": float("nan")})
    with pytest.raises(ValidationError):
        jsonio.dumps([float("inf")])


def test_state_roundtrip():
    rho = np.array([[0.75, 0.1 + 0.2j], [0.1 - 0.2j, 0.25]])
    state = DensityState(1, rho)
    text = jsonio.dumps(jsonio.state_to_doc(state))
    back = jsonio.parse_state(text)
    assert back.n == 1
    assert np.array_equal(back.rho, rho)


def test_dwf_roundtrip():
    w = WignerFunction(1, 3, np.array([0.5, 0.25, 0.5, -0.25]))
    text = jsonio.dumps(jsonio.dwf_to_doc(w))
    back = jsonio.parse_dwf(text)
    assert back.n == 1 and back.net_id == 3
    assert np.array_equal(back.w, w.w)


def test_parse_state_errors():
    with pytest.raises(ValidationError):
        jsonio.parse_state("not json")
    with pytest.raises(ValidationError):
        jsonio.parse_state("[1, 2]")
    with pytest.raises(ValidationError):
        jsonio.parse_state('{"n": 1}')
    with pytest.raises(ValidationError):
        jsonio.parse_state('{"n": 2, "rho": [[[1,0],[0,0]],[[0,0],[0,0]]]}')
    with pytest.raises(ValidationError):
        jsonio.parse_state('{"n": 1, "rho": [[1, 0], [0, 0]]}')


def test_parse_dwf_errors():
    with pytest.raises(ValidationError):
        jsonio.parse_dwf('{"n": 1, "w": [0.25, 0.25, 0.25, 0.25]}')
    with pytest.raises(ValidationError):
        jsonio.parse_dwf('{"n": 1, "net": 0, "w": [0.5, true, 0.25, 0.25]}')
    with pytest.raises(ValidationError):
        jsonio.parse_dwf('{"n": 1, "net": 0, "w": [1.0, 0.0, 0.0]}')


def test_dumps_deterministic():
    doc = {"n": 1, "w": [1 / 7, 2 / 7], "nested": {"a": [1, 2.0]}}
    assert jsonio.dumps(doc) == jsonio.dumps(doc)


BIG = "1" + "0" * 400  # a JSON integer beyond the float range


def test_parse_state_rejects_oversized_integer():
    doc = '{"n": 1, "rho": [[[1, 0], [0, 0]], [[0, ' + BIG + "], [0, 0]]]}"
    with pytest.raises(ValidationError, match='"rho".*too large'):
        jsonio.parse_state(doc)


def test_parse_dwf_rejects_oversized_integer():
    doc = '{"n": 1, "net": 0, "w": [' + BIG + ", 0, 0, 0]}"
    with pytest.raises(ValidationError, match='"w".*too large'):
        jsonio.parse_dwf(doc)


def test_parse_document_rejects_unreadable_json():
    # beyond Python's integer digit limit, and nested past the recursion limit
    with pytest.raises(ValidationError, match="unreadable JSON"):
        jsonio.parse_document('{"n": ' + "1" * 5000 + "}")
    with pytest.raises(ValidationError, match="unreadable JSON"):
        jsonio.parse_document("[" * 100000)
