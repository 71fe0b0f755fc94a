"""Command-line interface.

Subcommands: compute, to-rho, stokes, reduce, convert, spinflip, conjugate,
nets, concurrence, verify.  Inputs default to stdin and outputs to stdout;
exit codes are 0 on success, 2 on validation errors, 3 on internal
consistency failures (including verify suite failures).

Every command but nets and verify runs `_run`: read one JSON document, parse
it with the command's `jsonio` parser, call its action (parsed value, args)
-> output document, and write that.  Parsers and library functions are
looked up when `build_parser` or the action runs, never bound at import, so
a tracer that patches those module attributes sees every step.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .errors import (
    DwfError,
    NetConstructionError,
    ValidationError,
)
from .nets import (
    build_net,
    classify_nets,
    detect_product_structure,
    digits_of,
    enumerate_nets,
    net_context,
)
from .reduction import (
    KeepSet,
    concurrence_from_dwf,
    convert_net,
    reduce_dwf,
    reduction_map,
)
from .stokes import conjugate_dwf, spinflip_dwf, stokes_from_rho
from .wigner import dwf_from_rho, rho_from_dwf


def _read(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, doc) -> None:
    text = jsonio.dumps(doc) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _net_for(n: int, net_id: int):
    ctx = net_context(n)
    return build_net(ctx, net_id)


def _run(args) -> int:
    """Read, parse, act, write: the one pipeline of the document commands."""
    value = args.parse(_read(args.input))
    _write(args.output, args.act(value, args))
    return 0


def _compute(state, args) -> dict:
    return jsonio.dwf_to_doc(dwf_from_rho(state, _net_for(state.n, args.net)))


def _to_rho(w, args) -> dict:
    return jsonio.state_to_doc(rho_from_dwf(w, _net_for(w.n, w.net_id)))


def _stokes(state, args) -> dict:
    return jsonio.stokes_to_doc(stokes_from_rho(state))


def _parse_keep(text: str, n: int) -> KeepSet:
    try:
        positions = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"--keep must be comma-separated integers: {text!r}") from exc
    return KeepSet(n, positions)


def _reduce(w, args) -> dict:
    if args.net_in is not None and args.net_in != w.net_id:
        raise ValidationError(
            f"--net-in {args.net_in} does not match input DWF net {w.net_id}"
        )
    keep = _parse_keep(args.keep, w.n)
    rmap = reduction_map(_net_for(w.n, w.net_id), _net_for(keep.k, args.net_out), keep)
    return jsonio.dwf_to_doc(reduce_dwf(w, rmap))


def _convert(w, args) -> dict:
    return jsonio.dwf_to_doc(convert_net(w, _net_for(w.n, args.net_out)))


def _spinflip(w, args) -> dict:
    return jsonio.dwf_to_doc(spinflip_dwf(w))


def _conjugate(w, args) -> dict:
    return jsonio.dwf_to_doc(conjugate_dwf(w))


def _concurrence(w, args) -> dict:
    return {"n": w.n, "concurrence": concurrence_from_dwf(w, _net_for(w.n, w.net_id))}


def _cmd_nets(args) -> int:
    ctx = net_context(args.n)
    if args.describe is not None:
        digits = digits_of(args.describe, ctx.order)
        _write(args.output, {"id": args.describe, "digits": list(digits)})
        return 0
    ids = list(enumerate_nets(ctx, sample=args.sample))
    orbit_of = {}
    if args.classify:
        for rep, members in classify_nets(ctx).items():
            for member in members:
                orbit_of[member] = rep
    atlas = []
    for net_id in ids:
        entry = {"id": net_id, "digits": list(digits_of(net_id, ctx.order))}
        if args.classify:
            entry["orbit"] = orbit_of[net_id]
        if args.detect_product:
            entry["product"] = detect_product_structure(build_net(ctx, net_id)).form
        atlas.append(entry)
    _write(args.output, atlas)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suites  # the suites stay off the other commands' imports
    names = None if args.suite == "all" else [args.suite]
    results = run_suites(args.n, names)
    passed = sum(1 for r in results if r.ok)
    for r in results:
        print(r.line())
    print(f"{passed}/{len(results)} suites passed")
    return 0 if passed == len(results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwfnet",
        description="Discrete Wigner functions of multiqubit states over "
        "finite-field phase spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def document(p, parse, act):
        p.add_argument("-i", "--input", default=None, help="input file (default stdin)")
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        p.set_defaults(func=_run, parse=parse, act=act)

    p = sub.add_parser("compute", help="density matrix -> DWF")
    p.add_argument("--net", type=int, required=True, help="net id")
    document(p, jsonio.parse_state, _compute)
    document(sub.add_parser("to-rho", help="DWF -> density matrix"), jsonio.parse_dwf, _to_rho)
    document(sub.add_parser("stokes", help="density matrix -> Stokes vector"),
             jsonio.parse_state, _stokes)

    p = sub.add_parser("reduce", help="DWF -> subsystem DWF")
    p.add_argument("--keep", required=True, help="comma-separated qubit positions")
    p.add_argument("--net-in", type=int, default=None, help="expected source net id")
    p.add_argument("--net-out", type=int, required=True, help="target net id")
    document(p, jsonio.parse_dwf, _reduce)

    p = sub.add_parser("convert", help="re-express a DWF in another net")
    p.add_argument("--net-out", type=int, required=True)
    document(p, jsonio.parse_dwf, _convert)
    document(sub.add_parser("spinflip", help="apply the spin-flip matrix G"),
             jsonio.parse_dwf, _spinflip)
    document(sub.add_parser("conjugate", help="apply the conjugation matrix F"),
             jsonio.parse_dwf, _conjugate)

    p = sub.add_parser("nets", help="net atlas / classification")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--classify", action="store_true", help="add orbit labels")
    p.add_argument(
        "--detect-product", action="store_true", help="add product-structure labels"
    )
    p.add_argument("--describe", type=int, default=None, help="describe one net id")
    p.add_argument("--sample", type=int, default=None, help="sample count for n >= 3")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_nets)

    document(sub.add_parser("concurrence", help="concurrence of a pure two-qubit DWF"),
             jsonio.parse_dwf, _concurrence)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all", help="suite name, or all (default)")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NetConstructionError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except (DwfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
