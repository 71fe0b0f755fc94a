"""Registry of invariant suites; single source of truth for verification.

Each suite is registered once by `_suite` with its name and the qubit
counts it is defined at; the registered callable takes the qubit count and
returns a SuiteResult.  The CLI `verify` subcommand and the acceptance tests
both run these, so the numbers asserted here (sample sizes, tolerances) are
the contract.  Every tolerance comparison goes through
`SuiteResult.expect_close`; `expect` keeps the exact checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import UnsupportedDimensionError, ValidationError
from .ffield import SUPPORTED_DEGREES, GF2m, check_degree
from .nets import (
    build_net,
    classify_nets,
    detect_product_structure,
    enumerate_nets,
    id_of,
    net_context,
)
from .phasespace import PhaseSpace
from .reduction import (
    KeepSet,
    concurrence_from_dwf,
    reduce_dwf,
    reduction_map,
    shortcut_reduce,
)
from .stokes import (
    conjugate_dwf,
    conjugation_matrix,
    hadamard_matrix,
    spinflip_dwf,
    spinflip_matrix,
    stokes_from_rho,
)
from .translations import pauli_words
from .wigner import (
    DensityState,
    WignerFunction,
    dwf_from_rho,
    line_probability,
    purity_from_dwf,
    random_density,
    random_pure,
    rho_from_dwf,
)

SEED = 20240901


@dataclass
class SuiteResult:
    name: str
    n: int
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition, message: str) -> None:
        """Count each entry of a bool or boolean array as one check."""
        condition = np.asarray(condition)
        self.checks += condition.size
        if not condition.all():
            self.failures.append(message)

    def expect_close(self, residual, tol: float, family: str, where: str = "") -> None:
        """Count each entry of `residual` as one check, passed when below `tol`
        (a NaN fails); a failure names `where`, the family, the worst residual
        and `tol`."""
        residual = np.asarray(residual)
        self.checks += residual.size
        if not (residual < tol).all():
            self.failures.append(f"{where}{family}: worst {np.max(residual):.3g}, tol {tol:g}")

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = "" if self.ok else f" [{'; '.join(self.failures[:3])}]"
        return f"{status} {self.name} (n={self.n}): {self.checks} checks{extra}"


SUITES: dict = {}  # name -> suite, filled by `_suite` in declaration order


def _suite(name: str, sizes=SUPPORTED_DEGREES):
    """Register `body(r, n)` as the suite `name`, defined at the qubit counts
    `sizes` (default: every size the field takes).  The registered callable
    takes n, refuses an undeclared n before any work, and returns the
    SuiteResult `r` that the body filled."""

    def register(body):
        def suite(n: int) -> SuiteResult:
            if n not in suite.sizes:
                raise UnsupportedDimensionError(f"suite {name} not defined at n={n}")
            r = SuiteResult(name, n)
            body(r, n)
            return r

        suite.__name__ = suite.__qualname__ = body.__name__
        suite.__doc__, suite.sizes = body.__doc__, frozenset(sizes)
        SUITES[name] = suite
        return suite

    return register


def _gap(a, b, axis=None):
    """max |a - b|, over `axis` (default: all entries)."""
    return np.abs(a - b).max(axis=axis)


def _net_ids(ctx, sample_large: int = 100):
    """All ids for N <= 4, a deterministic sample above."""
    return list(enumerate_nets(ctx, sample=None if ctx.order <= 4 else sample_large))


@_suite("field-axioms")
def suite_field_axioms(r: SuiteResult, n: int) -> None:
    f = GF2m(n)
    mul, x = f.products, np.arange(f.order)
    y, z = x[:, None], x[:, None, None]
    r.expect(y ^ x == x ^ y, "add not commutative")
    r.expect(mul == mul.T, "mul not commutative")
    r.expect(mul[z, y ^ x] == mul[z, y] ^ mul[z, x], "distributivity fails")
    r.expect(mul[mul[z, y], x] == mul[z, mul[y, x]], "mul not associative")
    for a in x[1:]:
        r.expect(f.mul(a, f.inv(a)) == 1, f"inverse fails at {a}")
    r.expect(f.traces[mul[np.ix_(f.basis, f.dual_basis)]] == np.eye(f.m), "basis duality fails")
    dot = f.expansions() @ f.expansions(dual=True).T % 2
    r.expect(dot == f.traces[mul], "trace pairing fails")
    r.expect([f.compose(f.expand(a)) == a for a in x], "primal round trip fails")
    r.expect(
        [f.compose(f.expand(a, dual=True), dual=True) == a for a in x], "dual round trip fails"
    )


@_suite("phase-geometry")
def suite_phase_geometry(r: SuiteResult, n: int) -> None:
    space = PhaseSpace(GF2m(n))
    nn = space.order
    r.expect(len(space.lines) == nn + 1, "striation count != N+1")
    r.expect(space.lines.shape == (nn + 1, nn, nn), "line count != N(N+1)")
    # incidence[s * N + c, alpha] is True where alpha lies on line c of
    # striation s; the float product counts each pair's common points exactly
    incidence = (space.offsets[:, None] == np.arange(nn)[:, None]).reshape(-1, nn * nn)
    common = incidence @ incidence.T.astype(float)
    i, j = np.triu_indices(len(common), 1)
    parallel = i // nn == j // nn
    r.expect(common[i[parallel], j[parallel]] == 0, "parallel lines intersect")
    r.expect(common[i[~parallel], j[~parallel]] == 1, "cross-striation lines miss unique point")
    for alpha in range(nn * nn):
        through = space.lines_through(alpha)
        r.expect(len(through) == nn + 1, f"point {alpha} not on N+1 lines")
        r.expect((through == alpha).any(axis=1).all(), f"lines_through wrong at {alpha}")
    points = np.arange(nn * nn)
    for lines, offsets in zip(space.lines, space.offsets):
        # shifted[c, beta] is line c translated by beta, sorted; compare it
        # with the striation's line through its first point
        shifted = np.sort(lines[:, None, :] ^ points[None, :, None], axis=-1)
        r.expect(
            (shifted == lines[offsets[shifted[..., 0]]]).all(axis=-1),
            "translated line leaves its striation",
        )


def dense_ray_signs(es, table) -> np.ndarray:
    """Tr(Sigma P_{s,d}) of each non-identity ray word on each dense state of
    every striation s: the oracle of the mask-derived `es.signs`."""
    words = pauli_words(table.space.field.m)[table.pauli[es.rays[:, 1:]]]
    return np.einsum("sdab,skba->sdk", es.states, words, optimize=True)


@_suite("translations")
def suite_translations(r: SuiteResult, n: int) -> None:
    ctx = net_context(n)
    table = ctx.table
    nn = ctx.order
    es = ctx.eigensystems
    same = (dense_ray_signs(es, table) == es.signs).all(axis=(1, 2))
    for s in range(nn + 1):
        at = f"striation {s}: "
        r.expect(same[s], f"{at}ray word signs differ from the states")
        ops = table.matrices[es.rays[s]]
        u, v = (ops[k] for k in np.triu_indices(nn, 1))  # every pair once
        r.expect_close(_gap(u @ v, v @ u, (1, 2)), 1e-10, "ops do not commute", at)
        moved = ops @ es.states[s, :, None] @ ops.conj().transpose(0, 2, 1)  # [state, op]
        r.expect_close(
            _gap(moved, es.states[s, :, None], (2, 3)), 1e-10, "state not invariant", at
        )
    for a, b in combinations(range(nn + 1), 2):
        overlaps = np.einsum("aij,bji->ab", es.states[a], es.states[b]).real
        r.expect_close(np.abs(overlaps - 1.0 / nn), 1e-10, "bases not mutually unbiased")
    points = np.arange(nn * nn)
    for p1, t in enumerate(table.matrices):
        prod = t @ table.matrices
        target = table.matrices[p1 ^ points]
        r.expect_close(
            np.minimum(_gap(prod, target, (1, 2)), _gap(prod, -target, (1, 2))),
            1e-12,
            "translations do not compose up to sign",
        )


@_suite("net-traces")
def suite_net_traces(r: SuiteResult, n: int) -> None:
    ctx = net_context(n)
    nn = ctx.order
    eye = nn * np.eye(nn * nn)
    for net_id in _net_ids(ctx):
        ops = build_net(ctx, net_id).ops_array
        gram = np.einsum("aij,bji->ab", ops, ops, optimize=True)
        r.expect_close(_gap(gram, eye), 1e-9, "Tr(A_a A_b) != N delta", f"net {net_id}: ")


def dense_projectors(net) -> np.ndarray:
    """(N+1, N, N, N) array: [s, c] is the rank-one projector of line c
    of striation s, the ray's state moved by the line's smallest point."""
    es = net.ctx.eigensystems
    s = np.arange(net.order + 1)[:, None]
    shifts = net.ctx.space.lines[:, :, 0]
    return es.states[s, np.array(net.digits)[:, None] ^ es.flips[s, shifts]]


@_suite("net-structure")
def suite_net_structure(r: SuiteResult, n: int) -> None:
    """Covariance of line projectors and the line-sum identity."""
    ctx = net_context(n)
    space, table = ctx.space, ctx.table
    nn = ctx.order
    ids = _net_ids(ctx, sample_large=10)
    if nn == 4:
        ids = ids[::37] + [1023]  # covariance is O(N^4) per net; sample
    striations = np.arange(nn + 1)[:, None]
    first = space.lines[:, :, 0]
    for net_id in ids:
        at = f"net {net_id}: "
        net = build_net(ctx, net_id)
        q = dense_projectors(net)  # [s, c]: the projector of line c of striation s
        # one check per line, of its trace and of its idempotence
        r.expect(
            (np.abs(np.trace(q, axis1=2, axis2=3).real - 1.0) < 1e-10)
            & (np.abs(q @ q - q).max(axis=(2, 3)) < 1e-9),
            f"{at}line projector not a rank-one projector",
        )
        sigma = np.array([net.ops_array[lines].sum(axis=1) for lines in space.lines])
        r.expect_close(_gap(sigma, nn * q, (2, 3)), 1e-9, "violates line-sum identity", at)
        for beta, t in enumerate(table.matrices):
            # T_beta moves line c onto the line through its first point + beta
            lhs = q[striations, space.offsets[striations, first ^ beta]]
            r.expect_close(
                _gap(lhs, t @ q @ t.conj().T, (2, 3)), 1e-9, "violates translational covariance", at
            )
        total = net.ops_array.sum(axis=0)
        r.expect_close(_gap(total, nn * np.eye(nn)), 1e-9, "violates sum A = N I", at)


@_suite("net-census", sizes={1, 2})  # full enumeration and classification need N <= 4
def suite_net_census(r: SuiteResult, n: int) -> None:
    ctx = net_context(n)
    nn = ctx.order
    ids = list(enumerate_nets(ctx))
    r.expect(len(ids) == nn ** (nn + 1), "net count != N^(N+1)")
    orbits = classify_nets(ctx)
    r.expect(len(orbits) == nn ** (nn - 1), f"orbit count {len(orbits)} != N^(N-1)")
    r.expect(all(len(v) == nn * nn for v in orbits.values()), "orbit sizes != N^2")
    if n == 2:
        forms = {"eq6": 0, "eq7": 0, "none": 0}
        for net_id in ids:
            forms[detect_product_structure(build_net(ctx, net_id)).form] += 1
        r.expect(
            forms["eq6"] == 16 and forms["eq7"] == 16, f"product census {forms} != 16/16"
        )


@_suite("wigner-roundtrip")
def suite_wigner_roundtrip(r: SuiteResult, n: int) -> None:
    ctx = net_context(n)
    nn = ctx.order
    rng = np.random.default_rng(SEED)
    net_ids = _net_ids(ctx, sample_large=20)
    if len(net_ids) > 64:
        net_ids = net_ids[:: len(net_ids) // 64]
    states = [random_density(n, rng) for _ in range(10)]
    for net_id in net_ids:
        at = f"net {net_id}: "
        net = build_net(ctx, net_id)
        q = dense_projectors(net)
        for st in states:
            w = dwf_from_rho(st, net)
            r.expect_close(abs(w.w.sum() - 1.0), 1e-10, "normalization fails")
            r.expect_close(_gap(w.w, dense_dwf(st, net)), 1e-12, "W != (1/N) Tr(rho A_alpha)", at)
            back = rho_from_dwf(w, net)
            r.expect_close(
                _gap(back.rho, dense_rho(w, net)), 1e-12, "rho != sum_alpha w_alpha A_alpha", at
            )
            r.expect_close(_gap(back.rho, st.rho), 1e-10, "round trip fails")
            true_purity = float(np.trace(st.rho @ st.rho).real)
            r.expect_close(abs(purity_from_dwf(w) - true_purity), 1e-10, "purity identity fails")
            probs = np.array(
                [[line_probability(w, ln) for ln in lines] for lines in ctx.space.lines]
            )
            r.expect_close(
                np.abs(probs.sum(axis=1) - 1.0), 1e-10, "striation probabilities do not sum to 1"
            )
            direct = np.einsum("scab,ba->sc", q, st.rho).real
            r.expect_close(np.abs(probs - direct), 1e-10, "line probability mismatch")
    net = build_net(ctx, net_ids[0])
    a, b = states[0], states[1]
    for lam in (0.25, 0.5, 0.9):
        mix = DensityState(n, lam * a.rho + (1 - lam) * b.rho)
        blend = lam * dwf_from_rho(a, net).w + (1 - lam) * dwf_from_rho(b, net).w
        r.expect_close(_gap(dwf_from_rho(mix, net).w, blend), 1e-12, "transform not linear")
    for _ in range(10):
        pure = random_pure(n, rng)
        w = dwf_from_rho(pure, build_net(ctx, net_ids[-1]))
        r.expect_close(abs(purity_from_dwf(w) - 1.0), 1e-9, "pure state purity != 1")


def dense_dwf(state, net) -> np.ndarray:
    """Oracle for W: (1/N) Tr(rho A_alpha) from the dense point operators,
    complex so that an imaginary residue shows."""
    return np.einsum("kab,ba->k", net.ops_array, state.rho) / net.order


def dense_rho(w, net) -> np.ndarray:
    """Oracle for rho: sum_alpha w_alpha A_alpha from the dense point operators."""
    return np.einsum("k,kab->ab", w.w, net.ops_array)


def dense_stokes(state) -> np.ndarray:
    """Oracle for S: Tr(rho Sigma_j) from the dense stack of Pauli words."""
    return np.einsum("jab,ba->j", pauli_words(state.n), state.rho)


def dense_hadamard(net) -> np.ndarray:
    """Oracle for H: Tr(Sigma_j A_alpha) from the dense operator stacks."""
    words = pauli_words(net.n_qubits)
    return np.einsum("jab,kba->jk", words, net.ops_array, optimize=True)


def dense_conjugation(net) -> np.ndarray:
    """Oracle for F: Tr(conj(A_b) A_a) / N."""
    ops = net.ops_array
    return np.einsum("bij,aji->ba", ops.conj(), ops, optimize=True) / net.order


def dense_spinflip(net) -> np.ndarray:
    """Oracle for G: Tr(sigma_y^(xn) conj(A_b) sigma_y^(xn) A_a) / N."""
    n = net.n_qubits
    u = pauli_words(n)[int("2" * n, 4)]  # sigma_y^(xn), Hermitian
    flipped = u @ net.ops_array.conj() @ u
    return np.einsum("bij,aji->ba", flipped, net.ops_array, optimize=True) / net.order


@_suite("hadamard-bridge")
def suite_hadamard_bridge(r: SuiteResult, n: int) -> None:
    ctx = net_context(n)
    nn = ctx.order
    rng = np.random.default_rng(SEED)
    fixed = [random_density(n, rng) for _ in range(50)]
    stokes = [stokes_from_rho(st) for st in fixed]
    for st, s in zip(fixed, stokes):
        r.expect_close(_gap(s.s, dense_stokes(st)), 1e-12, "S != Tr(rho Sigma_j)")
    eye = (nn * nn) * np.eye(nn * nn, dtype=np.int64)
    for net_id in _net_ids(ctx):
        at = f"net {net_id}: "
        net = build_net(ctx, net_id)
        h = hadamard_matrix(net)
        r.expect(np.array_equal(h.h, dense_hadamard(net)), f"{at}H != Tr(Sigma_j A_alpha)")
        r.expect(np.array_equal(h.h @ h.h.T, eye), f"{at}H H^T != N^2 I")
        for st, s in zip(fixed, stokes):
            w = dwf_from_rho(st, net)
            r.expect_close(_gap(h.h @ w.w, s.s), 1e-9, "S != H W", at)
            r.expect_close(_gap(h.h.T @ s.s / 4**n, w.w), 1e-9, "W != H^-1 S", at)


@_suite("conjugation")
def suite_conjugation(r: SuiteResult, n: int) -> None:
    ctx = net_context(n)
    rng = np.random.default_rng(SEED)
    eye = np.eye(4**n)
    reference = None
    for net_id in _net_ids(ctx):
        at = f"net {net_id}: "
        net = build_net(ctx, net_id)
        f = conjugation_matrix(net)
        g = spinflip_matrix(net)
        r.expect(np.array_equal(f, dense_conjugation(net)), f"{at}F != Tr(conj(A_b) A_a) / N")
        r.expect(np.array_equal(g, dense_spinflip(net)), f"{at}G != its sigma_y form")
        if reference is None:
            reference = f
        r.expect(np.array_equal(f, reference), f"{at}F differs between nets")
        r.expect_close(_gap(f @ f, eye), 1e-10, "F^2 != I")
        r.expect_close(_gap(g @ g, eye), 1e-10, "G^2 != I")
        rows = np.argmax(np.abs(g @ f.T), axis=1)
        r.expect(
            np.array_equal(np.sort(rows), np.arange(4**n)) and np.array_equal(g, f[rows]),
            f"{at}G is not a row permutation of F",
        )
    net = build_net(ctx, _net_ids(ctx)[0])
    u = pauli_words(n)[int("2" * n, 4)]
    for _ in range(10):
        st = random_density(n, rng)
        w = dwf_from_rho(st, net)
        wc = dwf_from_rho(DensityState(n, st.rho.conj()), net).w
        r.expect_close(_gap(conjugate_dwf(w).w, wc), 1e-10, "F W != W(conj rho)")
        flipped = dwf_from_rho(DensityState(n, u @ st.rho.conj() @ u), net).w
        r.expect_close(_gap(spinflip_dwf(w).w, flipped), 1e-10, "G W != W(spin-flipped rho)")


def partial_trace(rho: np.ndarray, n: int, keep) -> np.ndarray:
    """Independent density-matrix oracle used by the reduction suites."""
    t = rho.reshape([2] * (2 * n))
    for axis in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=axis, axis2=axis + t.ndim // 2)
    d = 2 ** len(keep)
    return t.reshape(d, d)


def selection_matrix(keep: KeepSet) -> np.ndarray:
    """0/1 matrix T_k extracting the kept qubits' Stokes components.

    Row r (a k-qubit Pauli index) keeps r's base-4 digits on the kept
    positions, 0 elsewhere (first qubit most significant); built from the
    digits alone, apart from the reduction engine's tables.
    """
    rows = np.arange(4**keep.k)
    digits = (rows[:, None] >> 2 * np.arange(keep.k)[::-1]) & 3
    t = np.zeros((len(rows), 4**keep.n), dtype=np.int64)
    t[rows, digits @ 4 ** (keep.n - 1 - np.array(keep.keep))] = 1
    return t


def reduction_matrix(rmap) -> np.ndarray:
    """The dense 4^k x 4^n P of a reduction map, read off the library's own
    reduction: column alpha is `reduce_dwf` of the unit DWF e_alpha."""
    n = rmap.keep.n
    units = (WignerFunction(n, rmap.source_net, e) for e in np.eye(4**n))
    return np.stack([reduce_dwf(w, rmap).w for w in units], axis=1)


def _all_keep_sets(n: int):
    for k in range(1, n + 1):
        yield from (KeepSet(n, c) for c in combinations(range(n), k))


def _random_net(ctx, rng):
    """A uniformly drawn net, one random digit per striation.

    Drawing digits keeps every size in range; the scalar id N^(N+1)
    exceeds 64 bits from n = 4 on.
    """
    digits = rng.integers(0, ctx.order, ctx.order + 1)
    return build_net(ctx, id_of([int(d) for d in digits], ctx.order))


@_suite("reduction-oracle")
def suite_reduction_oracle(r: SuiteResult, n: int) -> None:
    ctx = net_context(n)
    rng = np.random.default_rng(SEED)
    fixed = [random_density(n, rng) for _ in range(25)]
    for keep in _all_keep_sets(n):
        tctx = net_context(keep.k)
        for _ in range(10):
            src = _random_net(ctx, rng)
            tgt = _random_net(tctx, rng)
            rmap = reduction_map(src, tgt, keep)
            at = f"keep={keep.keep} nets=({src.net_id},{tgt.net_id}): "
            for st in fixed:
                w = reduce_dwf(dwf_from_rho(st, src), rmap)
                reduced = DensityState(keep.k, partial_trace(st.rho, n, keep.keep))
                oracle = dwf_from_rho(reduced, tgt)
                r.expect_close(_gap(w.w, oracle.w), 1e-10, "oracle mismatch", at)
    # composition and net-conversion consistency
    if n >= 2:
        src = _random_net(ctx, rng)
        mid_keep = KeepSet(n, tuple(range(n - 1)))
        mid = _random_net(net_context(n - 1), rng)
        fin = _random_net(net_context(1), rng)
        two_step_a = reduction_map(src, mid, mid_keep)
        two_step_b = reduction_map(mid, fin, KeepSet(n - 1, (0,)))
        direct = reduction_map(src, fin, KeepSet(n, (0,)))
        for st in fixed[:5]:
            w = dwf_from_rho(st, src)
            stepped = reduce_dwf(reduce_dwf(w, two_step_a), two_step_b)
            r.expect_close(
                _gap(stepped.w, reduce_dwf(w, direct).w),
                1e-10,
                "nested reduction differs from direct reduction",
            )
    other = _random_net(ctx, rng)
    src = _random_net(ctx, rng)
    keep_all = KeepSet(n, tuple(range(n)))
    eye = np.eye(4**n)
    there = reduction_matrix(reduction_map(src, other, keep_all))
    back = reduction_matrix(reduction_map(other, src, keep_all))
    r.expect_close(_gap(back @ there, eye), 1e-9, "net conversion round trip is not the identity")
    ident = reduction_matrix(reduction_map(src, src, keep_all))
    r.expect_close(_gap(ident, eye), 1e-12, "keep-all same-net map is not the identity")


@_suite("shortcut-reduction", sizes={2})  # the product-net shortcut needs n = 2
def suite_shortcut(r: SuiteResult, n: int) -> None:
    ctx = net_context(2)
    rng = np.random.default_rng(SEED)
    fixed = [random_density(2, rng) for _ in range(50)]
    product_nets = [
        net
        for net in (build_net(ctx, i) for i in enumerate_nets(ctx))
        if detect_product_structure(net).is_product
    ]
    r.expect(len(product_nets) == 32, f"{len(product_nets)} product nets != 32")
    for net in product_nets:
        report = detect_product_structure(net)
        for which, tgt_id, keep in (
            ("A", report.factor_a_net, (0,)),
            ("B", report.factor_b_conj_net, (1,)),
        ):
            rmap = reduction_map(net, build_net(net_context(1), tgt_id), KeepSet(2, keep))
            for st in fixed:
                w = dwf_from_rho(st, net)
                shortcut = shortcut_reduce(w, net, which)
                # one check of the target net and the values together
                r.expect(
                    shortcut.net_id == tgt_id and _gap(shortcut.w, reduce_dwf(w, rmap).w) < 1e-10,
                    f"net {net.net_id} subsystem {which}: shortcut disagrees",
                )


@_suite("concurrence", sizes={2})  # two-qubit concurrence
def suite_concurrence(r: SuiteResult, n: int) -> None:
    ctx = net_context(2)
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = v / np.linalg.norm(v)
        st = DensityState(2, np.outer(v, v.conj()))
        exact = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        for _ in range(5):
            net = build_net(ctx, int(rng.integers(0, 1024)))
            c = concurrence_from_dwf(dwf_from_rho(st, net), net)
            r.expect_close(
                abs(c - exact), 1e-8, "concurrence != exact value", f"net {net.net_id}: "
            )


def run_suites(n: int, names=None) -> list:
    """Run the named suites (default: every suite declared at this n); a named
    suite refuses an n it is not declared at."""
    if names is None:
        # no suite is declared outside the field: refuse such an n as GF2m(n) does
        check_degree(n, "extension degree m", UnsupportedDimensionError)
        names = [name for name, suite in SUITES.items() if n in suite.sizes]
    results = []
    for name in names:
        if name not in SUITES:
            raise ValidationError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
        results.append(SUITES[name](n))
    return results
