"""The library builds its values through the public constructors.

Each builder returns what the public constructor returns on the same fields
(`reduction_map`'s maps are pinned the same way in `test_reduction.py`), and
the source holds no other way to make a value but the two fast paths of the
transforms, `wigner._dwf_on` and `wigner._state_of`.  No value is patched
after it is built: fields are written only while a value is built, and the
one later write is the rebuild memo `_state_of` leaves on a state.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import dwfnet
from dwfnet.errors import _Frozen
from dwfnet import (
    WignerFunction,
    build_net,
    detect_product_structure,
    dwf_from_rho,
    net_context,
    random_density,
    random_pure,
    shortcut_reduce,
    stokes_from_dwf,
    stokes_from_rho,
)
from helpers import random_net, same_bits


def assert_constructor_parity(value):
    """`value` has the repr and fields of its public constructor's value on
    the same fields, and its array is read-only."""
    *scalars, array = (getattr(value, name) for name in value.__match_args__)
    checked = type(value)(*scalars, array)
    assert type(value) is type(checked) and repr(value) == repr(checked)
    assert same_bits(array, getattr(checked, value.__match_args__[-1]))
    assert not array.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3])
def test_builders_return_the_public_constructors_values(n):
    rng = np.random.default_rng(3000 + n)
    net = random_net(n, rng)
    states = [random_density(n, rng), random_pure(n, rng)]
    for state in states:
        assert_constructor_parity(state)
        assert_constructor_parity(stokes_from_rho(state))
        assert_constructor_parity(stokes_from_dwf(dwf_from_rho(state, net)))


def test_shortcut_reduce_returns_the_public_constructors_values():
    rng = np.random.default_rng(3100)
    ctx = net_context(2)
    products = [i for i in range(ctx.net_count) if detect_product_structure(build_net(ctx, i)).is_product]
    for net_id in rng.choice(products, 4, replace=False).tolist():
        net = build_net(ctx, net_id)
        w = dwf_from_rho(random_density(2, rng), net)
        for which in ("A", "B"):
            out = shortcut_reduce(w, net, which)
            assert type(out) is WignerFunction and out.n == 1
            assert_constructor_parity(out)


def enclosing_functions(tree):
    """(function name, node) for every node of `tree`, inside its innermost
    function ("" at module or class level)."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            yield inner, child
            yield from walk(child, inner)

    return walk(tree, "")


def test_only_the_two_fast_paths_bypass_the_constructors():
    uses, defined = [], set()
    for path in sorted(Path(dwfnet.__file__).parent.glob("*.py")):
        for function, node in enclosing_functions(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                uses.append((path.name, function))
    assert sorted(uses) == [("wigner.py", "_dwf_on"), ("wigner.py", "_state_of")]
    assert not defined & {"_built", "_of"}


def field_writes(tree):
    """The scope "Class.method" or "function" of every call in `tree` that
    writes a field past `_Frozen.__setattr__`: `_set_field(...)`,
    `object.__setattr__(...)` or `vars(...).update(...)`."""
    def writes(func):
        if isinstance(func, ast.Name):
            return func.id == "_set_field"
        return isinstance(func, ast.Attribute) and (
            (func.attr == "__setattr__" and isinstance(func.value, ast.Name) and func.value.id == "object")
            or (func.attr == "update" and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name) and func.value.func.id == "vars"))

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and writes(child.func):
                yield inner
            yield from walk(child, inner)

    return walk(tree, "")


def value_types(paths):
    """The names of every `_Frozen` subclass the modules at `paths` define."""
    for path in paths:
        if path.stem != "__init__":
            importlib.import_module(f"dwfnet.{path.stem}")
    types, todo = set(), [_Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            types.add(sub.__qualname__)
            todo.append(sub)
    return types


def test_no_value_is_patched_after_it_is_built():
    # a value's fields are written while it is built: in its type's
    # `__init__` or `_settle`, or by the fast paths `_dwf_on` and `_state_of`
    # (whose `_rebuilt` memo is the one write to a finished value)
    paths = sorted(Path(dwfnet.__file__).parent.glob("*.py"))
    allowed = {f"{t}.{m}" for t in value_types(paths) for m in ("__init__", "_settle")}
    allowed |= {"_dwf_on", "_state_of"}
    stray = []
    for path in paths:
        stray += [(path.name, scope) for scope in field_writes(ast.parse(path.read_text(), str(path)))
                  if scope not in allowed]
    assert stray == []
