"""One Hermitian rule for every state command.

`DensityState` accepts rho when its Hermitian residual max |rho - rho^dag|
is at most `HERM_TOL`.  `compute` and `stokes` transform the Pauli grid of
(rho + rho^dag) / 2 and add no rule of their own, so on near-Hermitian
documents, at norms up to the input bound 1e-8 / (N^2 eps), the constructor
and both commands give the same accept or refuse answer, for the same reason.
"""

import io
import sys
import warnings

import numpy as np
import pytest

from dwfnet import DensityState, jsonio, random_density
from dwfnet.cli import main
from dwfnet.errors import ValidationError
from dwfnet.wigner import EPS, HERM_TOL


def state_doc(n, rho):
    return jsonio.dumps({"n": n, "rho": [[[z.real, z.imag] for z in row] for row in rho]})


def run(monkeypatch, capsys, argv, doc):
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def constructor_error(n, rho):
    """The error line the CLI prints for the constructor's refusal, or None."""
    try:
        DensityState(n, rho)
    except ValidationError as exc:
        return f"error: {exc}\n"
    return None


def near_hermitian(n, rng, large):
    """A seeded n-qubit rho whose Hermitian residual is 0.5 to 2 times
    HERM_TOL, at a norm near 1 or, when `large`, 0.5 to 0.99 of the bound,
    carried by a traceless Hermitian part."""
    order = 2**n
    rho = random_density(n, rng).rho
    if large:
        big = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
        big = big + big.conj().T
        big[np.diag_indices(order)] = 0.0
        bound = 1e-8 / (order**2 * EPS)
        rho = rho + big * (rng.uniform(0.5, 0.99) * bound / np.linalg.norm(big))
    m = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    skew = (m - m.conj().T) / 2
    # rho - rho^dag gains 2 skew, whose largest entry is scaled to f HERM_TOL
    return rho + skew * (rng.uniform(0.5, 2.0) * HERM_TOL / (2 * np.abs(skew).max()))


def motivating_states():
    """Documents the Hermitian rule accepts that an imaginary-residue screen
    on `stokes` refused: I/4 + 4.9e-11 (iY x I), whose residual 9.8e-11 lies
    under HERM_TOL while |Im Tr(rho Y x I)| = 1.96e-10 does not, and exactly
    Hermitian n = 2 states I/4 + Z, Z zero-diagonal and complex, at norm
    2.5e6, below the bound 2.8e6."""
    iy = np.array([[0.0, -1.0], [1.0, 0.0]])
    yield np.eye(4) / 4 + 4.9e-11 * np.kron(iy, np.eye(2))
    rng = np.random.default_rng(2400)
    for _ in range(10):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z = np.triu(z, 1)
        z = z + z.conj().T
        yield np.eye(4) / 4 + z * (2.5e6 / np.linalg.norm(z))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_state_commands_share_the_constructors_answer(monkeypatch, capsys, n):
    rng = np.random.default_rng(2410 + n)
    nets = (2**n) ** (2**n + 1)
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # negative eigenvalues
        for trial in range(16):
            rho = near_hermitian(n, rng, large=trial % 2 == 1)
            doc = state_doc(n, rho)
            error = constructor_error(n, rho)
            for argv in (["compute", "--net", str(rng.integers(nets))],
                         ["compute", "--net", str(rng.integers(nets))], ["stokes"]):
                code, _, err = run(monkeypatch, capsys, argv, doc)
                assert (code, err) == ((0, "") if error is None else (2, error)), argv
            errors.append(error)
    # the battery straddles the rule, and it is the only rule it meets
    assert None in errors and set(errors) == {None, "error: rho is not Hermitian\n"}


def test_states_the_hermitian_rule_accepts_pass_stokes(monkeypatch, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for rho in motivating_states():
            doc = state_doc(2, rho)
            assert constructor_error(2, rho) is None
            for argv in (["stokes"], ["compute", "--net", "7"]):
                code, _, err = run(monkeypatch, capsys, argv, doc)
                assert (code, err) == (0, ""), argv
