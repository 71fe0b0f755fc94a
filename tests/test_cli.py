import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dwfnet import DensityState, build_net, dwf_from_rho, jsonio, net_context, random_density
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


def test_compute_file_io(tmp_path, capsys):
    src = tmp_path / "state.json"
    dst = tmp_path / "dwf.json"
    src.write_text(state_doc(1, np.eye(2) / 2))
    code = main(["compute", "--net", "1", "-i", str(src), "-o", str(dst)])
    assert code == 0
    assert json.loads(dst.read_text())["w"] == [0.25, 0.25, 0.25, 0.25]


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


def test_nets_sample_large(capsys, monkeypatch):
    code, out, _ = run(capsys, ["nets", "--n", "3", "--sample", "10"])
    assert code == 0
    assert len(json.loads(out)) == 10


def test_nets_refuses_full_large(capsys, monkeypatch):
    code, _, err = run(capsys, ["nets", "--n", "3"])
    assert code == 2
    assert "refused" in err


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


@pytest.mark.parametrize(
    "n, digest",
    [
        ("1", "8007ee2bb290cedde0eab3cf6bcb596b2730768cd6fc210b2387d48836dfce8e"),
        ("3", "194dc37b5e5e83d99ef947118854edcc8ccdc1beba3cc69198886bc74912d72d"),
    ],
)
def test_verify_output_is_pinned(capsys, n, digest):
    # the lines hold suite names and integer check counts only
    code, out, _ = run(capsys, ["verify", "--n", n])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("module", ["dwfnet", "dwfnet.cli"])
def test_import_leaves_verify_unloaded(module):
    # a cold CLI call compiles and runs verify.py only for `dwfnet verify`
    code = f"import sys, {module}; sys.exit('dwfnet.verify' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(jsonio.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
    ],
    ids=["compute", "to-rho", "reduce"],
)
def test_non_finite_input_exits_2(capsys, monkeypatch, argv, doc, field):
    code, out, err = run(capsys, argv, doc, monkeypatch)
    assert code == 2
    assert out == ""
    assert field in err and "non-finite" in err


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
DWF_COMMANDS = [
    ["to-rho"],
    ["convert", "--net-out", "1"],
    ["spinflip"],
    ["conjugate"],
    ["reduce", "--keep", "0", "--net-out", "0"],
]


@pytest.mark.parametrize(
    "argv, doc, field",
    [(argv, doc, '"w"') for doc in (HUGE_W1, HUGE_W2) for argv in DWF_COMMANDS]
    + [(argv, HUGE_RHO, '"rho"') for argv in (["compute", "--net", "0"], ["stokes"])],
    ids=[f"{name}-{argv[0]}" for name in ("w1", "w2") for argv in DWF_COMMANDS]
    + ["rho-compute", "rho-stokes"],
)
def test_input_whose_norm_overflows_exits_2(capsys, monkeypatch, argv, doc, field):
    # finite entries whose transforms would overflow are refused up front,
    # naming the input's own field, before numpy can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv, doc, monkeypatch)
    assert code == 2
    assert out == ""
    assert field in err and "too large" in err
