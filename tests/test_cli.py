import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dwfnet import (
    DensityState, build_net, dwf_from_rho, jsonio, net_context, random_density, random_pure,
)
from dwfnet import cli
from dwfnet.cli import main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def state_doc(n, rho):
    return jsonio.dumps({"n": n, "rho": [[[z.real, z.imag] for z in row] for row in rho]})


def bell_dwf_doc(net_id=7):
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    rho = DensityState(2, np.outer(psi, psi))
    w = dwf_from_rho(rho, build_net(net_context(2), net_id))
    return jsonio.dumps(jsonio.dwf_to_doc(w))


def test_compute_maximally_mixed(tmp_path, capsys, monkeypatch):
    doc = state_doc(1, np.eye(2) / 2)
    code, out, err = run(capsys, ["compute", "--net", "0"], doc, monkeypatch)
    assert code == 0
    result = json.loads(out)
    assert result["n"] == 1
    assert result["net"] == 0
    assert result["w"] == [0.25, 0.25, 0.25, 0.25]


MIXED_DOC = state_doc(1, np.eye(2) / 2)


DOCUMENT_REQUESTS = [
    (["compute", "--net", "1"], MIXED_DOC),
    (["to-rho"], bell_dwf_doc()),
    (["stokes"], MIXED_DOC),
    (["reduce", "--keep", "1", "--net-out", "2"], bell_dwf_doc()),
    (["convert", "--net-out", "500"], bell_dwf_doc()),
    (["spinflip"], bell_dwf_doc()),
    (["conjugate"], bell_dwf_doc()),
    (["concurrence"], bell_dwf_doc()),
]


@pytest.mark.parametrize(
    "argv, doc", DOCUMENT_REQUESTS, ids=[argv[0] for argv, _ in DOCUMENT_REQUESTS]
)
def test_document_file_io(tmp_path, capsys, monkeypatch, argv, doc):
    # -i FILE -o FILE writes the bytes that stdin -> stdout prints
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(doc)
    code, expected, _ = run(capsys, argv, doc, monkeypatch)
    assert code == 0
    code, out, _ = run(capsys, argv + ["-i", str(src), "-o", str(dst)])
    assert code == 0 and out == ""
    assert dst.read_bytes() == expected.encode()
    if argv[0] == "compute":
        assert json.loads(expected)["w"] == [0.25, 0.25, 0.25, 0.25]
    # a missing input file is a validation error, and nothing is written
    code, out, err = run(capsys, argv + ["-i", str(tmp_path / "missing.json")])
    assert code == 2 and out == "" and "missing.json" in err


def test_compute_to_rho_roundtrip(capsys, monkeypatch):
    rng = np.random.default_rng(31)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    doc = state_doc(2, rho)
    code, out, _ = run(capsys, ["compute", "--net", "77"], doc, monkeypatch)
    assert code == 0
    code, out2, _ = run(capsys, ["to-rho"], out, monkeypatch)
    assert code == 0
    back = json.loads(out2)["rho"]
    rho2 = np.array([[complex(re, im) for re, im in row] for row in back])
    assert np.allclose(rho2, rho, atol=1e-10)


def test_output_is_deterministic(capsys, monkeypatch):
    doc = bell_dwf_doc()
    _, out1, _ = run(capsys, ["to-rho"], doc, monkeypatch)
    _, out2, _ = run(capsys, ["to-rho"], doc, monkeypatch)
    assert out1 == out2


def test_stokes_bell(capsys, monkeypatch):
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    doc = state_doc(2, np.outer(psi, psi))
    code, out, _ = run(capsys, ["stokes"], doc, monkeypatch)
    assert code == 0
    s = json.loads(out)["s"]
    expect = np.zeros(16)
    expect[0], expect[5], expect[10], expect[15] = 1.0, 1.0, -1.0, 1.0
    assert np.allclose(s, expect, atol=1e-12)


def test_reduce_bell(capsys, monkeypatch):
    doc = bell_dwf_doc(net_id=7)
    code, out, _ = run(
        capsys,
        ["reduce", "--keep", "0", "--net-in", "7", "--net-out", "3"],
        doc,
        monkeypatch,
    )
    assert code == 0
    result = json.loads(out)
    assert result["n"] == 1 and result["net"] == 3
    assert np.allclose(result["w"], 0.25)


def test_reduce_net_in_mismatch(capsys, monkeypatch):
    doc = bell_dwf_doc(net_id=7)
    code, _, err = run(
        capsys,
        ["reduce", "--keep", "0", "--net-in", "5", "--net-out", "3"],
        doc,
        monkeypatch,
    )
    assert code == 2
    assert "net" in err


def test_convert_and_back(capsys, monkeypatch):
    doc = bell_dwf_doc(net_id=7)
    code, out, _ = run(capsys, ["convert", "--net-out", "500"], doc, monkeypatch)
    assert code == 0
    code, out2, _ = run(capsys, ["convert", "--net-out", "7"], out, monkeypatch)
    assert code == 0
    orig = json.loads(doc)["w"]
    assert np.allclose(json.loads(out2)["w"], orig, atol=1e-12)


def test_reduce_keeping_every_qubit_is_convert(capsys, monkeypatch):
    # a keep-all reduction is net conversion, byte for byte
    rng = np.random.default_rng(83)
    for n in [1, 2, 3]:
        order = 2**n
        for _ in range(8):
            net_in, net_out = (int(i) for i in rng.integers(0, order ** (order + 1), 2))
            w = dwf_from_rho(random_density(n, rng), build_net(net_context(n), net_in))
            doc = jsonio.dumps(jsonio.dwf_to_doc(w))
            keep = ",".join(str(q) for q in range(n))
            argv = ["reduce", "--keep", keep, "--net-out", str(net_out)]
            code, reduced, _ = run(capsys, argv, doc, monkeypatch)
            assert code == 0
            code, converted, _ = run(capsys, ["convert", "--net-out", str(net_out)], doc, monkeypatch)
            assert code == 0 and reduced == converted


def test_spinflip_bell_invariant(capsys, monkeypatch):
    doc = bell_dwf_doc(net_id=7)
    code, out, _ = run(capsys, ["spinflip"], doc, monkeypatch)
    assert code == 0
    assert np.allclose(json.loads(out)["w"], json.loads(doc)["w"], atol=1e-10)


def test_conjugate_involution(capsys, monkeypatch):
    doc = bell_dwf_doc(net_id=9)
    code, out, _ = run(capsys, ["conjugate"], doc, monkeypatch)
    assert code == 0
    code, out2, _ = run(capsys, ["conjugate"], out, monkeypatch)
    assert np.allclose(json.loads(out2)["w"], json.loads(doc)["w"], atol=1e-12)


@pytest.mark.parametrize("command", ["spinflip", "conjugate"])
def test_sign_maps_reject_bad_net_id(capsys, monkeypatch, command):
    # F and G need no net, but the input's net id is still checked
    doc = json.loads(bell_dwf_doc())
    doc["net"] = 1024
    code, out, err = run(capsys, [command], jsonio.dumps(doc), monkeypatch)
    assert code == 2 and not out and "out of range" in err


def test_concurrence_bell(capsys, monkeypatch):
    doc = bell_dwf_doc(net_id=7)
    code, out, _ = run(capsys, ["concurrence"], doc, monkeypatch)
    assert code == 0
    assert json.loads(out)["concurrence"] == pytest.approx(1.0, abs=1e-10)


def test_nets_atlas(capsys, monkeypatch):
    code, out, _ = run(capsys, ["nets", "--n", "1", "--classify"])
    assert code == 0
    atlas = json.loads(out)
    assert len(atlas) == 8
    assert atlas[0]["id"] == 0
    assert atlas[0]["digits"] == [0, 0, 0]
    orbits = {entry["orbit"] for entry in atlas}
    assert orbits == {0, 1}


def test_nets_detect_product(capsys, monkeypatch):
    code, out, _ = run(capsys, ["nets", "--n", "2", "--detect-product"])
    assert code == 0
    atlas = json.loads(out)
    forms = [entry["product"] for entry in atlas]
    assert forms.count("eq6") == 16
    assert forms.count("eq7") == 16
    assert forms.count("none") == 1024 - 32


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["nets", "--n", "1", "--classify"],
            "efb19964706ae35c7275da1009c95bd9e76ac77d7eceb4315c447f162484c25c",
        ),
        (
            ["nets", "--n", "2", "--classify", "--detect-product"],
            "efa422f0b305d4039b365a750fd12584e016663fa21accf78f25e929db7c1ec9",
        ),
    ],
)
def test_nets_atlas_is_pinned(capsys, argv, digest):
    # ids, digits, orbit labels and product forms are all integers or
    # fixed strings, so the exact stdout is platform independent
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_nets_detect_product_wrong_n(capsys, monkeypatch):
    code, _, err = run(capsys, ["nets", "--n", "1", "--detect-product"])
    assert code == 2


def test_nets_describe(capsys, monkeypatch):
    code, out, _ = run(capsys, ["nets", "--n", "1", "--describe", "5"])
    assert code == 0
    assert json.loads(out) == {"id": 5, "digits": [1, 0, 1]}


@pytest.mark.parametrize(
    "extra", [["--classify"], ["--detect-product"], ["--sample", "3"], ["--sample", "0"]],
    ids=["classify", "detect-product", "sample", "sample-0"],
)
def test_nets_describe_refuses_other_flags(capsys, extra):
    # --describe prints one net's digits; a flag it would drop is refused, not ignored
    code, out, err = run(capsys, ["nets", "--n", "2", "--describe", "5", *extra])
    assert (code, out) == (2, "")
    assert err == f"error: --describe cannot be combined with {extra[0]}\n"


def test_nets_sample_large(capsys, monkeypatch):
    code, out, _ = run(capsys, ["nets", "--n", "3", "--sample", "10"])
    assert code == 0
    assert len(json.loads(out)) == 10


def test_nets_refuses_full_large(capsys, monkeypatch):
    code, _, err = run(capsys, ["nets", "--n", "3"])
    assert code == 2
    assert "refused" in err


ONE_QUBIT_DWF_DOC = jsonio.dumps(
    jsonio.dwf_to_doc(dwf_from_rho(DensityState(1, np.eye(2) / 2), build_net(net_context(1), 0)))
)


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["reduce", "--keep", "0,x", "--net-out", "0"], bell_dwf_doc(),
         "--keep must be comma-separated integers: '0,x'"),
        (["concurrence"], ONE_QUBIT_DWF_DOC, "concurrence is defined for two-qubit DWFs and nets"),
        (["nets", "--n", "3", "--sample", "4", "--classify"], None,
         "classification over all 134217728 nets refused for N=8"),
    ],
    ids=["reduce-keep-not-integers", "concurrence-one-qubit", "nets-classify-n3"],
)
def test_refusal_exits_2_with_its_message(capsys, monkeypatch, argv, doc, message):
    code, out, err = run(capsys, argv, doc, monkeypatch)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_invalid_trace_exits_2(capsys, monkeypatch):
    doc = state_doc(1, np.diag([0.9, 0.0]))
    code, _, err = run(capsys, ["compute", "--net", "0"], doc, monkeypatch)
    assert code == 2
    assert "error" in err


def test_dimension_mismatch_exits_2(capsys, monkeypatch):
    doc = jsonio.dumps({"n": 2, "rho": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]})
    code, _, err = run(capsys, ["compute", "--net", "0"], doc, monkeypatch)
    assert code == 2


def test_malformed_json_exits_2(capsys, monkeypatch):
    code, _, err = run(capsys, ["compute", "--net", "0"], "{not json", monkeypatch)
    assert code == 2


def test_bad_net_id_exits_2(capsys, monkeypatch):
    doc = state_doc(1, np.eye(2) / 2)
    code, _, err = run(capsys, ["compute", "--net", "99"], doc, monkeypatch)
    assert code == 2


def test_missing_input_file_exits_2(capsys):
    code = main(["compute", "--net", "0", "-i", "/nonexistent/state.json"])
    assert code == 2


def test_verify_single_suite(capsys):
    code = main(["verify", "--n", "1", "--suite", "field-axioms"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS field-axioms" in out
    assert "1/1 suites passed" in out


def test_verify_unknown_suite_exits_2(capsys):
    # verify.run_suites is the one check of suite names, not argparse
    code, out, err = run(capsys, ["verify", "--n", "2", "--suite", "bogus"])
    assert code == 2
    assert out == ""
    assert "'bogus'" in err


@pytest.mark.parametrize("n", ["0", "6"])
def test_verify_unsupported_qubit_count_exits_2(capsys, n):
    # worded as every other command's refusal of n
    code, out, err = run(capsys, ["verify", "--n", n])
    assert (code, out) == (2, "")
    assert f"qubit count n {n} out of range" in err


@pytest.mark.parametrize(
    "n, digest",
    [
        ("1", "8007ee2bb290cedde0eab3cf6bcb596b2730768cd6fc210b2387d48836dfce8e"),
        ("2", "cd9bae21004d21c766c7583801b8a7cc070d0028b730739f66089775fe1d1c84"),
        ("3", "194dc37b5e5e83d99ef947118854edcc8ccdc1beba3cc69198886bc74912d72d"),
    ],
)
def test_verify_output_is_pinned(capsys, n, digest):
    # the lines hold suite names and integer check counts only
    code, out, _ = run(capsys, ["verify", "--n", n])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def pinned_requests():
    """Seeded document requests on physical states: stokes and compute on
    three nets per state, and to-rho, convert, reduce, spinflip and conjugate
    on each DWF, at n = 1..3, plus concurrence of the pure n = 2 DWFs."""
    for n in (1, 2, 3):
        rng = np.random.default_rng([2430, n])
        ctx = net_context(n)
        ids = [0, ctx.net_count - 1, int(rng.integers(ctx.net_count))]
        for state, pure in ((random_density(n, rng), False), (random_pure(n, rng), True)):
            doc = state_doc(n, state.rho)
            yield ["stokes"], doc
            for net_id in ids:
                yield ["compute", "--net", str(net_id)], doc
                w_doc = jsonio.dumps(jsonio.dwf_to_doc(dwf_from_rho(state, build_net(ctx, net_id))))
                keep = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
                target = rng.integers(net_context(len(keep)).net_count)
                yield ["to-rho"], w_doc
                yield ["convert", "--net-out", str(rng.integers(ctx.net_count))], w_doc
                yield ["reduce", "--keep", ",".join(map(str, keep)), "--net-out", str(target)], w_doc
                yield ["spinflip"], w_doc
                yield ["conjugate"], w_doc
                if n == 2 and pure:
                    yield ["concurrence"], w_doc


def test_document_commands_are_pinned(capsys, monkeypatch):
    # the stdout and exit code of every document command at n <= 3, where net
    # ids are stable, hashed together; the floats come from this numpy build's
    # matrix products, so the digest pins outputs on one platform
    digest = hashlib.sha256()
    for argv, doc in pinned_requests():
        code, out, err = run(capsys, argv, doc, monkeypatch)
        assert (code, err) == (0, ""), argv
        digest.update(f"{argv} {code}\n{out}".encode())
    assert digest.hexdigest() == "df801d1e04eb641250ae0016447e1efd74c7c7675e31670d399ca4852b5d7b19"


@pytest.mark.parametrize("module", ["dwfnet", "dwfnet.cli"])
def test_import_leaves_verify_unloaded(module):
    # a cold CLI call compiles and runs verify.py only for `dwfnet verify`
    code = f"import sys, {module}; sys.exit('dwfnet.verify' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(jsonio.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_dataclasses_and_cmath_unloaded():
    # neither module is generated or imported on a cold CLI call's path
    code = "import sys, dwfnet.cli; sys.exit(bool({'dataclasses', 'cmath'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(jsonio.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


COMMANDS = ["compute", "to-rho", "stokes", "reduce", "convert", "spinflip", "conjugate", "nets",
            "concurrence", "verify"]
USAGE = [
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    ["bogus"],
    ["compute"],
    ["-x", "compute", "--net", "1"],
    ["reduce", "--keep", "0,x", "--net-out", "0"],
    ["nets", "--n", "6", "--describe", "0"],
    ["nets", "--n", "2", "--describe", "9999"],
]


def test_usage_is_pinned(capsys, monkeypatch):
    # help, usage errors and early refusals hashed with argv and exit code;
    # argparse's wording is this Python version's, at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in USAGE:
        monkeypatch.setattr(sys, "stdin", io.StringIO(bell_dwf_doc()))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        digest.update(json.dumps([argv, code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == "f7973e4dacde4ee1b81c16bf4815d3a313a26930b1d53173e2bd2bc95894b1c9"


def test_every_command_in_the_table_is_in_the_usage_pin():
    assert set(cli._COMMANDS) == set(COMMANDS)


def test_only_the_named_command_takes_its_arguments():
    argv = ["compute", "--net", "1"]
    assert cli.build_parser(["compute"]).parse_args(argv).net == 1
    with pytest.raises(SystemExit) as exc:  # compute is not armed: --net is unknown
        cli.build_parser(["stokes"]).parse_args(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["stokes"], '{"n": 0, "rho": [[[1, 0]]]}'),
        (["stokes"], state_doc(6, np.eye(64) / 64)),
        (["to-rho"], '{"n": 6, "net": 0, "w": [1.0]}'),
    ],
    ids=["stokes-n0", "stokes-n6", "to-rho-n6"],
)
def test_unsupported_qubit_count_exits_2(capsys, monkeypatch, argv, doc):
    code, out, err = run(capsys, argv, doc, monkeypatch)
    assert code == 2
    assert out == ""
    assert 'field "n"' in err


@pytest.mark.parametrize(
    "argv, doc, field",
    [
        (["compute", "--net", "0"],
         '{"n": 1, "rho": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}', '"rho"'),
        (["to-rho"], '{"n": 1, "net": 0, "w": [NaN, 0.25, 0.25, 0.25]}', '"w"'),
        (["reduce", "--keep", "0", "--net-out", "0"],
         '{"n": 2, "net": 0, "w": [Infinity' + ", 0.0" * 15 + "]}", '"w"'),
        # inf - inf and inf + -inf: refused before numpy could warn on them
        (["compute", "--net", "0"],
         '{"n": 1, "rho": [[[Infinity, 0], [0, 0]], [[0, 0], [0.5, 0]]]}', '"rho"'),
        (["stokes"],
         '{"n": 1, "rho": [[[0.5, 0], [Infinity, 0]], [[Infinity, 0], [0.5, 0]]]}', '"rho"'),
        (["to-rho"], '{"n": 1, "net": 0, "w": [Infinity, -Infinity, 0.5, 0.5]}', '"w"'),
    ],
    ids=["compute", "to-rho", "reduce", "compute-inf-diagonal", "stokes-inf-off-diagonal",
         "to-rho-inf-minus-inf"],
)
def test_non_finite_input_exits_2(capsys, monkeypatch, argv, doc, field):
    code, out, err = run(capsys, argv, doc, monkeypatch)
    assert code == 2
    assert out == ""
    assert field in err and "non-finite" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["stokes"], '{"n": true, "rho": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}'),
        (["to-rho"], '{"n": 1, "net": true, "w": [0.25, 0.25, 0.25, 0.25]}'),
        (["stokes"], '{"n": 1, "rho": [[[true, 0], [0, 0]], [[0, 0], [0, 0]]]}'),
    ],
    ids=["n", "net", "rho-cell"],
)
def test_boolean_as_number_exits_2(capsys, monkeypatch, argv, doc):
    code, out, err = run(capsys, argv, doc, monkeypatch)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv, doc, field",
    [
        (["compute", "--net", "0"],
         '{"n": 1, "rho": [[[1' + "0" * 400 + ', 0], [0, 0]], [[0, 0], [0, 0]]]}', '"rho"'),
        (["to-rho"], '{"n": 1, "net": 0, "w": [1' + "0" * 400 + ", 0, 0, 0]}", '"w"'),
    ],
    ids=["compute", "to-rho"],
)
def test_oversized_integer_exits_2(capsys, monkeypatch, argv, doc, field):
    code, out, err = run(capsys, argv, doc, monkeypatch)
    assert code == 2
    assert out == ""
    assert field in err and "too large" in err


HUGE_W1 = '{"n": 1, "net": 0, "w": [1e308, -1e308, 0.5, 0.5]}'
# the two huge entries meet first in numpy's pairwise sum, so the DWF sums to 1
HUGE_W2 = json.dumps({"n": 2, "net": 0, "w": [1e308] + [1 / 14] * 7 + [-1e308] + [1 / 14] * 7})
HUGE_RHO = '{"n": 1, "rho": [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]}'
# finite and far from overflow, but past the rounding bound on the norm: the
# transforms' outputs used to fail their own sum rule, naming no input field
BIG_W = '{"n": 1, "net": 0, "w": [1e100, -1e100, 0.5, 0.5]}'
BIG_RHO = '{"n": 1, "rho": [[[0.5, 0], [1e100, 0]], [[1e100, 0], [0.5, 0]]]}'
DWF_COMMANDS = [
    ["to-rho"],
    ["convert", "--net-out", "1"],
    ["spinflip"],
    ["conjugate"],
    ["reduce", "--keep", "0", "--net-out", "0"],
]
RHO_COMMANDS = [["compute", "--net", "0"], ["stokes"]]


@pytest.mark.parametrize(
    "argv, doc, field",
    [(argv, doc, '"w"') for doc in (HUGE_W1, HUGE_W2) for argv in DWF_COMMANDS]
    + [(argv, HUGE_RHO, '"rho"') for argv in RHO_COMMANDS]
    + [(argv, BIG_W, '"w"') for argv in DWF_COMMANDS + [["reduce", "--keep", "0", "--net-out", "1"]]]
    + [(argv, BIG_RHO, '"rho"') for argv in RHO_COMMANDS],
    ids=[f"{name}-{argv[0]}" for name in ("w1", "w2") for argv in DWF_COMMANDS]
    + ["rho-compute", "rho-stokes"]
    + [f"big-w-{argv[0]}" for argv in DWF_COMMANDS] + ["big-w-reduce-net-out-1"]
    + ["big-rho-compute", "big-rho-stokes"],
)
def test_input_whose_norm_overflows_exits_2(capsys, monkeypatch, argv, doc, field):
    # finite entries too large for the transforms to keep their 1e-8 sum
    # rule (let alone not overflow) are refused up front, naming the input's
    # own field, before numpy can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv, doc, monkeypatch)
    assert code == 2
    assert out == ""
    assert field in err and "too large" in err


def test_overflowing_sum_exits_2_with_the_error_alone():
    # a fresh process, where numpy's overflow warning would reach stderr
    env = {**os.environ, "PYTHONPATH": str(Path(jsonio.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "dwfnet.cli", "to-rho"],
        input='{"n": 1, "net": 0, "w": [1e308, 1e308, 0, 0]}', env=env, capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines() == ["error: Wigner function sums to inf, not 1"]


def below_bound(n, rng):
    """A seeded state document and DWF document of n qubits whose
    Hilbert-Schmidt norm lies just below the constructors' bound
    1e-8 / (N^2 eps), carried by a few large entries that cancel in the
    trace and the sum."""
    order = 2**n
    r = rng.uniform(0.9, 0.99) * 1e-8 / (order**2 * np.finfo(float).eps)
    big = np.zeros((order, order), complex)
    a, b = rng.choice(order, 2, replace=False) if n > 1 else (0, 1)
    big[a, b] = rng.standard_normal() + 1j * rng.standard_normal()
    big[b, a] = np.conj(big[a, b])
    big[a, a], big[b, b] = 1.0, -1.0
    rho = random_density(n, rng).rho + big * (r / np.linalg.norm(big))
    spikes = np.zeros(order**2)
    size = rng.uniform(0.5, 1.5, 2)
    spikes[rng.choice(order**2, 4, replace=False)] = np.concatenate([size, -size])
    w = dwf_from_rho(random_density(n, rng), build_net(net_context(n), 0)).w
    w = w + spikes * (r / np.sqrt(order * np.sum(spikes**2)))
    return state_doc(n, rho), jsonio.dumps({"n": n, "net": int(rng.integers(order)), "w": list(w)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_input_just_below_the_bound_keeps_every_sum_rule(capsys, monkeypatch, n):
    # every library-built value of an accepted input keeps its sum or trace
    # rule: no command fails on the value the library itself built
    rng = np.random.default_rng(1900 + n)
    order = 2**n
    nets = order ** (order + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # negative eigenvalues
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(6):
            rho_doc, w_doc = below_bound(n, rng)
            keep = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
            requests = [
                (["compute", "--net", str(rng.integers(nets))], rho_doc),
                (["to-rho"], w_doc),
                (["convert", "--net-out", str(rng.integers(nets))], w_doc),
                (["spinflip"], w_doc),
                (["conjugate"], w_doc),
                (["reduce", "--keep", ",".join(map(str, keep)), "--net-out", "1"], w_doc),
            ]
            for argv, doc in requests:
                code, out, err = run(capsys, argv, doc, monkeypatch)
                assert (code, err) == (0, ""), (argv, doc)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_exits_2(tmp_path, capsys, monkeypatch, source):
    # a UTF-16 byte-order mark is not UTF-8: one error line, no traceback
    data = b"\xff\xfe" + bell_dwf_doc().encode("utf-16-le")
    if source == "file":
        path = tmp_path / "dwf.json"
        path.write_bytes(data)
        argv = ["to-rho", "-i", str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        argv = ["to-rho"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "can't decode byte 0xff" in captured.err
