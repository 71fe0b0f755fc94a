"""JSON schemas and deterministic serialization for the CLI.

Schemas:
  state:  {"n": int, "rho": [[[re, im], ...], ...]}   row-major complex
  dwf:    {"n": int, "net": int, "w": [real, ...]}
  stokes: {"n": int, "s": [real, ...]}

Floats are always written with 17 significant digits so that write/parse is
lossless and repeated runs are byte identical.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError
from .ffield import check_degree
from .stokes import StokesVector
from .wigner import DensityState, WignerFunction


def _fmt(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValidationError("non-finite float in output")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """json.dumps with 17-significant-digit floats and stable layout."""
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise ValidationError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"field {key!r} must be {kind.__name__}")
    return value


def _require_n(doc: dict) -> int:
    return check_degree(_require(doc, "n", int), 'field "n"')


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _floats(value, key: str) -> np.ndarray:
    """np.array(value, dtype=float), rejecting integers beyond the float range."""
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:
        raise ValidationError(f'field "{key}" has an entry too large for a float') from exc


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # integer digit limit, nesting depth
        raise ValidationError(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("top-level JSON value must be an object")
    return doc


def parse_state(text: str) -> DensityState:
    doc = parse_document(text)
    n = _require_n(doc)
    rows = _require(doc, "rho", list)
    dim = 2**n
    if len(rows) != dim or any(not isinstance(row, list) or len(row) != dim for row in rows):
        raise ValidationError(f'field "rho" must be a {dim}x{dim} matrix for n={n}')
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2 or not all(map(_is_number, cell)):
                raise ValidationError(f'field "rho"[{i}][{j}] must be a [re, im] pair')
    # each [re, im] pair is one complex128 in memory
    return DensityState(n, _floats(rows, "rho").view(complex)[..., 0])


def state_to_doc(state: DensityState) -> dict:
    return {
        "n": state.n,
        "rho": [[[z.real, z.imag] for z in row] for row in state.rho],
    }


def parse_dwf(text: str) -> WignerFunction:
    doc = parse_document(text)
    n = _require_n(doc)
    net = _require(doc, "net", int)
    w = _require(doc, "w", list)
    if not all(map(_is_number, w)):
        raise ValidationError('field "w" must be an array of numbers')
    return WignerFunction(n, net, _floats(w, "w"))


def dwf_to_doc(w: WignerFunction) -> dict:
    return {"n": w.n, "net": w.net_id, "w": list(w.w)}


def stokes_to_doc(s: StokesVector) -> dict:
    return {"n": s.n, "s": list(s.s)}
