import warnings

import numpy as np
import pytest

from dwfnet import (
    DensityState,
    StokesVector,
    WignerFunction,
    build_net,
    dwf_from_rho,
    id_of,
    line_probability,
    net_context,
    purity_from_dwf,
    random_density,
    random_pure,
    rho_from_dwf,
    stokes_from_rho,
)
from dwfnet.errors import NetMismatchError, ValidationError
from dwfnet.translations import operator_from_grid, pauli_grid
from dwfnet.verify import dense_dwf, dense_rho, dense_stokes


def bell_state():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return DensityState(2, np.outer(psi, psi))


def test_density_state_validation():
    with pytest.raises(ValidationError):
        DensityState(1, np.array([[0.9, 0.0], [0.0, 0.0]]))  # trace != 1
    with pytest.raises(ValidationError):
        DensityState(1, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityState(2, np.eye(2) / 2.0)  # wrong dimension
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        DensityState(1, np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD: warn
    assert any("negative eigenvalue" in str(w.message) for w in caught)


def test_wigner_function_validation():
    with pytest.raises(ValidationError):
        WignerFunction(1, 0, np.array([0.5, 0.5, 0.5, 0.5]))  # sum != 1
    with pytest.raises(ValidationError):
        WignerFunction(1, 0, np.array([1.0, 0.0]))  # wrong length
    # net ids run over [0, N^(N+1)): 1024 two-qubit nets
    for net_id in (1024, -1):
        with pytest.raises(ValidationError, match=r"out of range \[0, 1024\)"):
            WignerFunction(2, net_id, np.full(16, 1 / 16))
    assert WignerFunction(2, 1023, np.full(16, 1 / 16)).net_id == 1023


def test_validation_messages_print_plain_floats():
    # numpy scalars print as np.float64(...) under numpy 2
    with pytest.raises(ValidationError) as trace:
        DensityState(1, np.eye(2))
    with pytest.raises(ValidationError) as total:
        WignerFunction(1, 0, np.full(4, 0.5))
    assert str(trace.value) == "rho has trace 2.0, not 1"
    assert str(total.value) == "Wigner function sums to 2.0, not 1"


def test_negativity_warning_threshold():
    # the warning fires below PSD_TOL = -1e-9 and prints the eigenvalue
    for smallest, warns in ((-2e-9, True), (-5e-10, False)):
        rho = np.diag([1.0 - smallest, smallest])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            DensityState(1, rho)
        messages = [str(w.message) for w in caught]
        if warns:
            assert len(messages) == 1 and "negative eigenvalue -2.000e-09" in messages[0]
        else:
            assert not messages
    rng = np.random.default_rng(37)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in [1, 2, 3, 4]:
            random_pure(m, rng)
            DensityState(m, np.eye(2**m) / 2**m)


def test_wigner_function_rejects_non_finite_values():
    # non-finite entries are refused before any arithmetic, so not even
    # inf - inf raises a numpy warning (the next test covers a sum that overflows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            w = np.full(4, 0.25)
            w[2] = bad
            with pytest.raises(ValidationError, match="non-finite entry"):
                WignerFunction(1, 0, w)
        with pytest.raises(ValidationError, match="non-finite entry"):
            WignerFunction(1, 0, np.array([np.inf, -np.inf, 0.5, 0.5]))


def test_overflowing_sum_is_named_without_a_numpy_warning():
    # finite entries whose sum overflows: the sum rule names it, and numpy's
    # overflow warning does not precede the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="Wigner function sums to inf, not 1"):
            WignerFunction(1, 0, np.array([1e308, 1e308, 0.0, 0.0]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: DensityState(1, np.array([[np.inf, 0], [0, 0.5]])),
        lambda: DensityState(1, np.array([[0.5, np.inf], [np.inf, 0.5]])),
        lambda: DensityState(1, np.array([[0.5, np.nan], [0, 0.5]])),
        lambda: WignerFunction(1, 0, np.array([np.inf, -np.inf, 0.5, 0.5])),
        lambda: StokesVector(1, np.array([1.0, np.inf, -np.inf, 0.0])),
    ],
    ids=["rho-inf-diagonal", "rho-inf-off-diagonal", "rho-nan", "w-inf-minus-inf", "s-inf"],
)
def test_constructors_refuse_non_finite_entries_before_any_arithmetic(make):
    # the project's error::RuntimeWarning filter turns any numpy warning on
    # inf - inf or inf + -inf taken before the refusal into a failure
    with pytest.raises(ValidationError, match=r'field "(rho|w|s)" has a non-finite entry'):
        make()


def test_wrong_shape_is_named_before_a_non_finite_entry():
    with pytest.raises(ValidationError, match="w must have length 4"):
        WignerFunction(1, 0, np.array([np.nan, 0.5]))
    with pytest.raises(ValidationError, match="rho must be 2x2"):
        DensityState(1, np.full((4, 4), np.nan))


def test_wrong_shape_is_named_before_the_norm_bound():
    # an array of the wrong shape is never measured against the bound
    with pytest.raises(ValidationError, match="rho must be 2x2 for n=1"):
        DensityState(1, np.full((3, 3), 1e300))
    with pytest.raises(ValidationError, match="w must have length 4 for n=1"):
        WignerFunction(1, 0, np.full(3, 1e300))


def test_maximally_mixed_is_uniform():
    for m in [1, 2]:
        ctx = net_context(m)
        n = ctx.order
        rho = DensityState(m, np.eye(n) / n)
        for net_id in [0, ctx.net_count - 1]:
            w = dwf_from_rho(rho, build_net(ctx, net_id))
            assert np.allclose(w.w, np.full(n * n, 1.0 / n**2))


def test_single_qubit_plus_state():
    # |+> in the net assigning |0>, |+>, |R|: w = (1/2)Tr(rho A)
    ctx = net_context(1)
    net = build_net(ctx, 1)
    rho = DensityState(1, np.full((2, 2), 0.5))
    w = dwf_from_rho(rho, net)
    # A(0,0) = (I+X+Y+Z)/2 -> w(0,0) = Tr(rho A)/2 = 1/2
    assert w.w[0] == pytest.approx(0.5)
    assert w.w.sum() == pytest.approx(1.0)


def test_roundtrip_random_states():
    rng = np.random.default_rng(7)
    for m in [1, 2]:
        ctx = net_context(m)
        for _ in range(10):
            rho = random_density(m, rng)
            net_id = int(rng.integers(ctx.net_count))
            net = build_net(ctx, net_id)
            w = dwf_from_rho(rho, net)
            back = rho_from_dwf(w, net)
            assert np.allclose(back.rho, rho.rho, atol=1e-10)


def test_negativity_appears_for_pure_states():
    # a state unbiased to every line of the net must carry negative values
    ctx = net_context(1)
    net = build_net(ctx, 0)
    rng = np.random.default_rng(3)
    saw_negative = False
    for _ in range(20):
        w = dwf_from_rho(random_pure(1, rng), net)
        if (w.w < -1e-12).any():
            saw_negative = True
    assert saw_negative


def test_line_probability():
    ctx = net_context(1)
    net = build_net(ctx, 1)
    zero = DensityState(1, np.diag([1.0, 0.0]))
    w = dwf_from_rho(zero, net)
    space = ctx.space

    def prob(sid, c):
        return line_probability(w, space.lines[sid, c])

    # the (0,1) ray digit of net 1 is 0, so line (0, 0) holds |0>
    assert prob(0, 0) == pytest.approx(1.0)
    assert prob(0, 1) == pytest.approx(0.0)
    # lines of every other striation are unbiased
    for sid in [1, 2]:
        for c in [0, 1]:
            assert prob(sid, c) == pytest.approx(0.5)


def test_purity_from_dwf():
    ctx = net_context(2)
    net = build_net(ctx, 5)
    w = dwf_from_rho(bell_state(), net)
    assert purity_from_dwf(w) == pytest.approx(1.0, abs=1e-10)
    mixed = DensityState(2, np.eye(4) / 4.0)
    wm = dwf_from_rho(mixed, net)
    assert purity_from_dwf(wm) == pytest.approx(0.25, abs=1e-12)


def test_net_mismatch_rejected():
    ctx = net_context(1)
    w = dwf_from_rho(DensityState(1, np.eye(2) / 2), build_net(ctx, 0))
    with pytest.raises(NetMismatchError):
        rho_from_dwf(w, build_net(ctx, 1))


def test_random_density_properties():
    rng = np.random.default_rng(11)
    for m in [1, 2]:
        rho = random_density(m, rng)
        evals = np.linalg.eigvalsh(rho.rho)
        assert (evals > -1e-12).all()
        assert np.trace(rho.rho).real == pytest.approx(1.0)
        pure = random_pure(m, rng)
        assert np.trace(pure.rho @ pure.rho).real == pytest.approx(1.0)


def test_transforms_match_dense_oracles():
    # the Stokes-space route against the point-operator and Pauli-word sums
    rng = np.random.default_rng(17)
    for m in [1, 2, 3, 4, 5]:
        ctx = net_context(m)
        for _ in range(3 if m < 5 else 1):
            digits = [int(d) for d in rng.integers(0, ctx.order, ctx.order + 1)]
            net = build_net(ctx, id_of(digits, ctx.order))
            state = random_density(m, rng)
            w = dwf_from_rho(state, net)
            assert np.max(np.abs(w.w - dense_dwf(state, net))) < 1e-12
            back = rho_from_dwf(w, net)
            assert np.max(np.abs(back.rho - dense_rho(w, net))) < 1e-12
            s = stokes_from_rho(state)
            assert np.max(np.abs(s.s - dense_stokes(state))) < 1e-12


def test_pauli_transform_round_trip():
    # the transform is linear and invertible on any operator, Hermitian or not
    rng = np.random.default_rng(19)
    for m in [1, 2, 3, 4, 5]:
        dim = 2**m
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = pauli_grid(a, m)
        assert s.shape == (dim, dim)
        assert s[0, 0] == pytest.approx(np.trace(a))
        assert np.max(np.abs(operator_from_grid(s, m) - a)) < 1e-12
