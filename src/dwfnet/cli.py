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
    UnsupportedDimensionError,
    ValidationError,
)
from .ffield import check_degree
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


def _run(args) -> int:
    """Read, parse, act, write: the one pipeline of the document commands."""
    value = args.parse(_read(args.input))
    _write(args.output, args.act(value, args))
    return 0


def _compute(state, args) -> dict:
    return jsonio.dwf_to_doc(dwf_from_rho(state, build_net(net_context(state.n), args.net)))


def _to_rho(w, args) -> dict:
    return jsonio.state_to_doc(rho_from_dwf(w, build_net(net_context(w.n), w.net_id)))


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
    source = build_net(net_context(w.n), w.net_id)
    rmap = reduction_map(source, build_net(net_context(keep.k), args.net_out), keep)
    return jsonio.dwf_to_doc(reduce_dwf(w, rmap))


def _convert(w, args) -> dict:
    return jsonio.dwf_to_doc(convert_net(w, build_net(net_context(w.n), args.net_out)))


def _spinflip(w, args) -> dict:
    return jsonio.dwf_to_doc(spinflip_dwf(w))


def _conjugate(w, args) -> dict:
    return jsonio.dwf_to_doc(conjugate_dwf(w))


def _concurrence(w, args) -> dict:
    return {"n": w.n, "concurrence": concurrence_from_dwf(w, build_net(net_context(w.n), w.net_id))}


def _cmd_nets(args) -> int:
    if args.describe is not None:  # the digits alone: no net context is built
        for flag, given in (("classify", args.classify), ("detect-product", args.detect_product),
                            ("sample", args.sample is not None)):
            if given:
                raise ValidationError(f"--describe cannot be combined with --{flag}")
        n = check_degree(args.n, error=UnsupportedDimensionError)  # as `net_context` checks n
        digits = digits_of(args.describe, 2**n)
        _write(args.output, {"id": args.describe, "digits": list(digits)})
        return 0
    ctx = net_context(args.n)
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
    results = run_suites(args.n, names, lambda r: print(r.line(), flush=True))
    passed = sum(1 for r in results if r.ok)
    print(f"{passed}/{len(results)} suites passed")
    return 0 if passed == len(results) else 3


# Each command once: name -> (help, its `jsonio` parser's name, action, argument specs).  One
# with a parser also takes -i/-o and runs `_run`; one without (None) runs its action alone.
_COMMANDS = {
    "compute": ("density matrix -> DWF", "parse_state", _compute,
                [("--net", dict(type=int, required=True, help="net id"))]),
    "to-rho": ("DWF -> density matrix", "parse_dwf", _to_rho, []),
    "stokes": ("density matrix -> Stokes vector", "parse_state", _stokes, []),
    "reduce": ("DWF -> subsystem DWF", "parse_dwf", _reduce, [
        ("--keep", dict(required=True, help="comma-separated qubit positions")),
        ("--net-in", dict(type=int, help="expected source net id")),
        ("--net-out", dict(type=int, required=True, help="target net id"))]),
    "convert": ("re-express a DWF in another net", "parse_dwf", _convert,
                [("--net-out", dict(type=int, required=True))]),
    "spinflip": ("apply the spin-flip matrix G", "parse_dwf", _spinflip, []),
    "conjugate": ("apply the conjugation matrix F", "parse_dwf", _conjugate, []),
    "nets": ("net atlas / classification", None, _cmd_nets, [
        ("--n", dict(type=int, required=True, help="qubit count")),
        ("--classify", dict(action="store_true", help="add orbit labels")),
        ("--detect-product", dict(action="store_true", help="add product-structure labels")),
        ("--describe", dict(type=int, help="describe one net id")),
        ("--sample", dict(type=int, help="sample count for n >= 3")),
        ("-o", "--output", {})]),
    "concurrence": ("concurrence of a pure two-qubit DWF", "parse_dwf", _concurrence, []),
    "verify": ("run invariant suites", None, _cmd_verify, [
        ("--suite", dict(default="all", help="suite name, or all (default)")),
        ("--n", dict(type=int, required=True, help="qubit count"))]),
}
_IO = [("-i", "--input", dict(help="input file (default stdin)")),
       ("-o", "--output", dict(help="output file (default stdout)"))]


def build_parser(argv) -> argparse.ArgumentParser:
    """The CLI's parser for `argv`: only the subcommand its first command
    token names gets its arguments.  The top-level parser takes no option with
    a value, so argparse picks that command and parses with its subparser alone."""
    parser = argparse.ArgumentParser(
        prog="dwfnet",
        description="Discrete Wigner functions of multiqubit states over "
        "finite-field phase spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((a for a in argv if a in _COMMANDS), None)
    for name, (help, parse, act, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        if name != named:
            continue
        for *flags, keywords in specs + (_IO if parse else []):
            p.add_argument(*flags, **keywords)
        if parse is None:
            p.set_defaults(func=act)
        else:
            p.set_defaults(func=_run, parse=getattr(jsonio, parse), act=act)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except NetConstructionError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except (DwfError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
