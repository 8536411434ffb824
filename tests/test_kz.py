import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from kzcal import kz
from kzcal.core import ModelParams, StateVector, WeightVector, max_or_nan, omega_pairing
from kzcal.errors import (
    IntegrationFailureError,
    InvalidWeightError,
    SingularPathError,
    UnsupportedOrderError,
)
from kzcal.kernel import PairKernel
from kzcal.operators import permutation_operator, t_operator, twist_operator
from kzcal.kz import (
    KzConnection,
    PathSpec,
    commutator_norms,
    covariant_power,
    covariant_row,
    flatness_residual,
    integrate_path,
    mc_derivatives,
    mc_wavefunction,
)
from kzcal.suites import _suite_commutativity

import oracles
from oracles import (
    commutator_actions,
    covariant_row_rmatvec,
    curvature_rows_csr,
    integrate_path_complex,
)

HAND = ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.1)
W11 = WeightVector((1, 1))

GENTLE = ModelParams(n=3, N=2, x=(0.0, 1.1, 2.3), g=(1.0, 2.0), hbar=1.0, kappa=0.2)
W21 = WeightVector((2, 1))

PAIRS = ModelParams(
    n=5, N=3, x=(0.0, 1.1, 2.3, -0.9, 3.4), g=(1.0, 2.0, 2.7), hbar=0.9, kappa=0.35,
    gamma=0.6,
)
W221 = WeightVector((2, 2, 1))

SINGLE = ModelParams(n=1, N=1, x=(0.0,), g=(1.0,), hbar=1.0, kappa=0.3)
W1 = WeightVector((1,))


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def kz_rhs(i, state, conn):
    """(1/hbar) H_i Phi, the right-hand side of dPhi/dx_i."""
    out = conn.hamiltonian(i).apply(state)
    return StateVector(state.weight, out.amplitudes / conn.params.hbar)


def test_kz_rhs_hand_value():
    conn = KzConnection(HAND, W11)
    phi = StateVector(W11, np.array([1.0, 0.0]))
    out = kz_rhs(1, phi, conn)
    np.testing.assert_allclose(out.amplitudes, [1.0, -0.1], atol=1e-15)


def test_kz_rhs_linear():
    conn = KzConnection(HAND, W11)
    rng = np.random.default_rng(0)
    u = StateVector.random(W11, rng)
    v = StateVector.random(W11, rng)
    a, b = 1.3, -0.4 + 0.2j
    combo = StateVector(W11, a * u.amplitudes + b * v.amplitudes)
    np.testing.assert_allclose(
        kz_rhs(1, combo, conn).amplitudes,
        a * kz_rhs(1, u, conn).amplitudes + b * kz_rhs(1, v, conn).amplitudes,
        atol=1e-14,
    )


def test_total_momentum_through_pairing():
    conn = KzConnection(GENTLE, W21)
    rng = np.random.default_rng(1)
    phi = StateVector.random(W21, rng)
    total = sum(
        omega_pairing(kz_rhs(i, phi, conn)) * GENTLE.hbar for i in range(1, 4)
    )
    expected = (2 * 1.0 + 1 * 2.0) * omega_pairing(phi)
    assert total == pytest.approx(expected, rel=1e-13)


def test_covariant_power_k1_is_hbar_rhs():
    conn = KzConnection(GENTLE, W21)
    rng = np.random.default_rng(2)
    phi = StateVector.random(W21, rng)
    np.testing.assert_allclose(
        covariant_power(1, 1, phi, conn).amplitudes,
        GENTLE.hbar * kz_rhs(1, phi, conn).amplitudes,
        atol=1e-15,
    )


def test_covariant_power_bad_order():
    conn = KzConnection(GENTLE, W21)
    phi = StateVector.uniform(W21)
    with pytest.raises(UnsupportedOrderError):
        covariant_power(1, 4, phi, conn)


def test_covariant_row_matches_power():
    # omega^T A_k phi computed either way
    conn = KzConnection(GENTLE.replace(hbar=0.8), W21)
    rng = np.random.default_rng(3)
    phi = StateVector.random(W21, rng)
    for i in (1, 2, 3):
        for k in (1, 2, 3):
            via_row = np.dot(covariant_row(i, k, conn), phi.amplitudes)
            via_power = omega_pairing(covariant_power(i, k, phi, conn))
            assert via_row == pytest.approx(via_power, rel=1e-12)


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_constant_rmatvec_matches_rmatvec_of_a_constant(kind):
    # op^T (c, ..., c) from the coefficients alone is the gathering transpose
    # action bitwise, signed zeros included, for every operator kind the
    # covariant rows meet; T_ij has zero-sign rows on (2, 2, 1)
    params = PAIRS.replace(kind=kind)
    conn = KzConnection(params, W221)
    ops = [
        twist_operator(2, params, W221),
        permutation_operator(1, 3, W221),
        t_operator(2, 4, W221),
        KzConnection(SINGLE, W1).derivative(1),  # one zero diag term
    ]
    for i in range(1, 6):
        ops += [conn.hamiltonian(i), conn.derivative(i), conn.derivative(i, order=2)]
    slid = kz._constant_rmatvec(conn.derivative(1), 1.0)
    assert np.all(slid == slid[0])
    for op in ops:
        for c in (1.0, slid[0], -0.37):
            assert_bitwise(kz._constant_rmatvec(op, c), op.rmatvec(np.full(op.dim, c)))


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_covariant_row_matches_rmatvec_oracle(kind):
    # the rows skip the gathers of constant covectors and stay bitwise equal
    for params, weight in ((PAIRS.replace(kind=kind), W221), (SINGLE.replace(kind=kind, gamma=0.6), W1)):
        conn = KzConnection(params, weight)
        for i in range(1, params.n + 1):
            for k in (1, 2, 3):
                assert_bitwise(covariant_row(i, k, conn), covariant_row_rmatvec(i, k, conn))


# -- path integration ----------------------------------------------------------


def test_zero_length_path_is_exact_identity():
    conn = KzConnection(GENTLE, W21)
    phi = StateVector.uniform(W21)
    path = PathSpec(start=GENTLE.x, waypoints=(GENTLE.x, GENTLE.x))
    out = integrate_path(phi, path, conn)
    assert np.array_equal(out.amplitudes, phi.amplitudes)


def counted_rhs(monkeypatch, module):
    """t of every right-hand side call of the segments that `module` integrates."""
    calls = []
    make = module._segment_rhs

    def counting(*args):
        rhs = make(*args)

        def counted(t, y):
            calls.append(t)
            return rhs(t, y)

        return counted

    monkeypatch.setattr(module, "_segment_rhs", counting)
    return calls


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_real_state_transport_matches_complex_oracle(kind, monkeypatch):
    # a real initial state is integrated in float64 and ends within 1e-12 of
    # the complex integration, with an imaginary part of exactly zero, after
    # as many right-hand sides as scipy's DOP853 takes
    ours, theirs = counted_rhs(monkeypatch, kz), counted_rhs(monkeypatch, oracles)
    params = PAIRS.replace(kind=kind)
    conn = KzConnection(params, W221)
    x = np.asarray(params.x)
    path = PathSpec(start=params.x, waypoints=(tuple(x + 0.1 * np.arange(5)), tuple(x + 0.1)))
    rng = np.random.default_rng(12)
    for amps in (StateVector.uniform(W221).amplitudes, rng.standard_normal(30) + 0j):
        phi = StateVector(W221, amps)
        out = integrate_path(phi, path, conn)
        want = integrate_path_complex(phi, path, conn)
        assert np.linalg.norm(out.amplitudes - want.amplitudes) < 1e-12
        assert not np.any(out.amplitudes.imag)
        assert np.linalg.norm(out.amplitudes - phi.amplitudes) > 1e-3  # it moved
        assert len(ours) == len(theirs) > 0
        ours.clear()
        theirs.clear()


def test_complex_state_transport_is_the_complex_oracle(monkeypatch):
    # complex states take the same stepper as real ones: within 1e-12 of
    # scipy's DOP853, after as many right-hand sides
    ours, theirs = counted_rhs(monkeypatch, kz), counted_rhs(monkeypatch, oracles)
    for kind in ("rational", "trigonometric"):
        params = PAIRS.replace(kind=kind)
        conn = KzConnection(params, W221)
        x = np.asarray(params.x)
        path = PathSpec(start=params.x, waypoints=(tuple(x + 0.1 * np.arange(5)), tuple(x + 0.1)))
        phi = StateVector.random(W221, np.random.default_rng(13))
        out = integrate_path(phi, path, conn)
        want = integrate_path_complex(phi, path, conn)
        assert np.linalg.norm(out.amplitudes - want.amplitudes) < 1e-12
        assert np.linalg.norm(out.amplitudes.imag) > 1e-3
        assert len(ours) == len(theirs) > 0
        ours.clear()
        theirs.clear()


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_stepper_takes_the_steps_of_scipy_dop853(kind):
    # at a loose tolerance another step sequence would end ~1e-7 away, so
    # equal right-hand side counts and endpoints within 1e-12 mean equal
    # step decisions; the second segment has rejected steps
    params = PAIRS.replace(kind=kind)
    conn = KzConnection(params, W221)
    x = np.asarray(params.x)
    rng = np.random.default_rng(14)
    rejections = 0
    for b in (x + 0.1 * np.arange(5), x + np.array([0.0, 1.0, 0.0, 0.0, 0.0])):
        rhs = kz._segment_rhs(conn, x, b)
        real, complex_ = StateVector.uniform(W221), StateVector.random(W221, rng)
        for y0 in (real.amplitudes.real, complex_.amplitudes):
            for rtol, atol in ((1e-10, 1e-12), (1e-6, 1e-8)):
                want = scipy_solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=rtol, atol=atol)
                got = kz.solve_ivp(rhs, y0, rtol, atol)
                assert got.success and got.y.dtype == y0.dtype
                assert got.nfev == want.nfev
                assert np.linalg.norm(got.y - want.y[:, -1]) < 1e-12
                rejections += want.nfev - 2 - 12 * (len(want.t) - 1)
    assert rejections > 0


def test_dop853_tableau_is_pinned():
    # the stepper reads scipy's private DOP853 module; its layout is pinned here
    assert kz.dop853 is dop853_coefficients
    assert dop853_coefficients.N_STAGES == 12
    assert dop853_coefficients.A.shape == (16, 16)
    assert dop853_coefficients.B.shape == (12,)
    assert dop853_coefficients.C.shape == (16,)
    assert dop853_coefficients.E3.shape == dop853_coefficients.E5.shape == (13,)


def test_nan_right_hand_side_fails_with_too_small_step(monkeypatch):
    # a right-hand side that turns NaN halfway shrinks the step by 0.2 per
    # rejection until it is below ten spacings of t: scipy's failure, after
    # scipy's count of right-hand sides
    make = kz._segment_rhs

    def nan_after_half(*args):
        rhs = make(*args)
        return lambda t, y: rhs(t, y) * (np.nan if t > 0.5 else 1.0)

    conn = KzConnection(GENTLE, W21)
    end = (0.3, 1.1, 2.3)
    rhs = nan_after_half(conn, np.asarray(GENTLE.x), np.asarray(end))
    y0 = StateVector.uniform(W21).amplitudes.real
    got = kz.solve_ivp(rhs, y0, 1e-10, 1e-12)
    want = scipy_solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-10, atol=1e-12)
    assert not got.success and not want.success
    assert got.nfev == want.nfev > 100 and got.message == want.message
    # NaN from the first call: the step is NaN at once, which scipy would
    # shrink forever
    assert not kz.solve_ivp(lambda t, y: y * np.nan, y0, 1e-10, 1e-12).success
    monkeypatch.setattr(kz, "_segment_rhs", nan_after_half)
    path = PathSpec(start=GENTLE.x, waypoints=(end,))
    with pytest.raises(IntegrationFailureError, match="Required step size"):
        integrate_path(StateVector.uniform(W21), path, conn)


def test_transport_frees_each_segment_solver():
    # the stepper keeps no reference to a finished segment's stages; after
    # the path, traced memory is back within a few state vectors
    weight = WeightVector((4, 3, 2))
    dim = weight.dimension()
    assert dim >= 1000
    params = ModelParams(
        n=9, N=3, x=tuple(1.3 * k for k in range(9)), g=(1.0, 2.0, 2.7), hbar=1.0, kappa=0.2
    )
    conn = KzConnection(params, weight)
    x = np.asarray(params.x)
    path = PathSpec(start=params.x, waypoints=(tuple(x + 0.02 * np.arange(9)), tuple(x + 0.02)))
    phi = StateVector.uniform(weight)
    integrate_path(phi, path, conn)  # swap tables and operators are cached from here on
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = integrate_path(phi, path, conn)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.linalg.norm(out.amplitudes - phi.amplitudes) > 1e-4  # it moved
    assert grown < 4 * out.amplitudes.nbytes, grown


def test_first_order_taylor_step():
    conn = KzConnection(HAND, W11)
    phi = StateVector(W11, np.array([1.0, 0.0]))
    delta = 1e-3
    path = PathSpec(start=(0.0, 1.0), waypoints=((delta, 1.0),))
    out = integrate_path(phi, path, conn)
    H1 = np.array([[1.0, -0.1], [-0.1, 2.0]])
    expected = phi.amplitudes + delta * H1 @ phi.amplitudes
    assert np.linalg.norm(out.amplitudes - expected) < 5 * delta**2


def test_closed_loop_path_independence():
    conn = KzConnection(GENTLE, W21)
    phi = StateVector.uniform(W21)
    loop = PathSpec(
        start=(0.0, 1.1, 2.3),
        waypoints=((0.3, 1.1, 2.3), (0.3, 1.5, 2.3), (0.0, 1.5, 2.3), (0.0, 1.1, 2.3)),
        tolerance=1e-10,
        atol=1e-12,
    )
    out = integrate_path(phi, loop, conn)
    assert np.linalg.norm(out.amplitudes - phi.amplitudes) < 1e-9


def test_two_routes_agree():
    conn = KzConnection(GENTLE, W21)
    rng = np.random.default_rng(4)
    phi = StateVector.random(W21, rng)
    end = (0.4, 1.5, 2.3)
    direct = PathSpec(start=GENTLE.x, waypoints=(end,), tolerance=1e-11, atol=1e-13)
    detour = PathSpec(
        start=GENTLE.x,
        waypoints=((0.4, 1.1, 2.3), (0.4, 1.5, 2.3)),
        tolerance=1e-11,
        atol=1e-13,
    )
    a = integrate_path(phi, direct, conn)
    b = integrate_path(phi, detour, conn)
    assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-10


def test_collision_crossing_rejected(monkeypatch):
    conn = KzConnection(GENTLE, W21)
    phi = StateVector.uniform(W21)
    crossing = PathSpec(start=(0.0, 1.1, 2.3), waypoints=((1.5, 1.1, 2.3),))
    with pytest.raises(SingularPathError):
        integrate_path(phi, crossing, conn)
    touching = PathSpec(start=(0.0, 1.1, 2.3), waypoints=((1.1, 1.1, 2.3),))
    with pytest.raises(SingularPathError):
        integrate_path(phi, touching, conn)
    # a crossing on the second segment is found before the first one runs
    calls = []
    monkeypatch.setattr(kz, "solve_ivp", lambda *a, **k: calls.append(a))
    late = PathSpec(start=(0.0, 1.1, 2.3), waypoints=((0.1, 1.1, 2.3), (1.5, 1.1, 2.3)))
    with pytest.raises(SingularPathError, match="x_1 and x_2"):
        integrate_path(phi, late, conn)
    assert calls == []


def test_path_wrong_subspace_rejected():
    conn = KzConnection(GENTLE, W21)
    phi = StateVector.uniform(WeightVector((1, 2)))
    path = PathSpec(start=GENTLE.x, waypoints=((0.1, 1.1, 2.3),))
    with pytest.raises(InvalidWeightError):
        integrate_path(phi, path, conn)


def test_pathspec_validation():
    with pytest.raises(SingularPathError):
        PathSpec(start=(0.0, 1.0), waypoints=((0.0,),))
    with pytest.raises(SingularPathError):
        PathSpec(start=(0.0, 1.0), waypoints=(), tolerance=-1.0)


# -- covariant derivatives against integrated solutions -------------------------


def _solution_shift(conn, phi, site, delta, tol=1e-12):
    x = list(conn.params.x)
    x[site - 1] += delta
    path = PathSpec(start=conn.params.x, waypoints=(tuple(x),), tolerance=tol, atol=1e-14)
    return integrate_path(phi, path, conn).amplitudes


def test_covariant_power_k2_finite_difference():
    conn = KzConnection(GENTLE, W21)
    phi = StateVector.uniform(W21)
    h = 1e-3
    fp = _solution_shift(conn, phi, 1, +h)
    fm = _solution_shift(conn, phi, 1, -h)
    fd = (fp - 2 * phi.amplitudes + fm) / h**2
    alg = covariant_power(1, 2, phi, conn).amplitudes / GENTLE.hbar**2
    assert np.linalg.norm(fd - alg) / np.linalg.norm(alg) < 1e-5


def test_covariant_power_k3_finite_difference():
    conn = KzConnection(GENTLE, W21)
    phi = StateVector.uniform(W21)
    h = 5e-3
    f2p = _solution_shift(conn, phi, 1, +2 * h)
    fp = _solution_shift(conn, phi, 1, +h)
    fm = _solution_shift(conn, phi, 1, -h)
    f2m = _solution_shift(conn, phi, 1, -2 * h)
    fd = (f2p - 2 * fp + 2 * fm - f2m) / (2 * h**3)
    alg = covariant_power(1, 3, phi, conn).amplitudes / GENTLE.hbar**3
    assert np.linalg.norm(fd - alg) / np.linalg.norm(alg) < 1e-4


def test_mc_wavefunction_examples():
    w = WeightVector((1, 1, 1))
    one_hot = StateVector.basis_state(w, (2, 1, 3))
    assert mc_wavefunction(one_hot) == 1.0
    rng = np.random.default_rng(5)
    phi = StateVector.random(w, rng)
    # at n = N with all occupations 1 the projection is the sum over all
    # letter arrangements
    assert mc_wavefunction(phi) == pytest.approx(np.sum(phi.amplitudes))
    combo = StateVector(w, 0.7 * phi.amplitudes + 0.3j * one_hot.amplitudes)
    assert mc_wavefunction(combo) == pytest.approx(
        0.7 * mc_wavefunction(phi) + 0.3j * mc_wavefunction(one_hot)
    )


def test_mc_derivatives_match_finite_differences():
    conn = KzConnection(GENTLE, W21)
    phi = StateVector.uniform(W21)
    ders = mc_derivatives(phi, conn, max_order=3)
    h = 1e-3
    for site in (1, 2, 3):
        psis = {
            s: mc_wavefunction(StateVector(W21, _solution_shift(conn, phi, site, s * h)))
            for s in (-2, -1, 1, 2)
        }
        psi0 = mc_wavefunction(phi)
        d1 = (psis[1] - psis[-1]) / (2 * h)
        d2 = (psis[1] - 2 * psi0 + psis[-1]) / h**2
        assert abs(d1 - ders[0, site - 1]) / abs(ders[0, site - 1]) < 1e-5
        assert abs(d2 - ders[1, site - 1]) / abs(ders[1, site - 1]) < 1e-4


def test_mc_first_derivatives_sum_to_momentum():
    conn = KzConnection(GENTLE.replace(hbar=0.7), W21)
    rng = np.random.default_rng(6)
    phi = StateVector.random(W21, rng)
    ders = mc_derivatives(phi, conn, max_order=1)
    total = 0.7 * np.sum(ders[0])
    expected = (2 * 1.0 + 1 * 2.0) * mc_wavefunction(phi)
    assert total == pytest.approx(expected, rel=1e-12)


def test_flatness_residual_small_both_kinds():
    rng = np.random.default_rng(7)
    assert flatness_residual(GENTLE, W21, rng) < 1e-12
    trig = GENTLE.replace(kind="trigonometric", gamma=0.6)
    assert flatness_residual(trig, W21, rng) < 1e-12


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_flatness_pins_the_even_kernel_derivative(kind, monkeypatch):
    # hbar (d_j H_i - d_i H_j) v vanishes only because p' is even in dx: an
    # odd first derivative moves flatness to order one, not commutativity
    params = PAIRS.replace(kind=kind)
    commutativity = _suite_commutativity(params, W221, np.random.default_rng(8))
    assert flatness_residual(params, W221, np.random.default_rng(8)) < 1e-12
    even = PairKernel.dp

    def odd(self, dx, order):
        return even(self, dx, order) * (np.sign(dx) if order == 1 else 1.0)

    monkeypatch.setattr(PairKernel, "dp", odd)
    assert flatness_residual(params, W221, np.random.default_rng(8)) > 0.1
    assert _suite_commutativity(params, W221, np.random.default_rng(8)) == commutativity


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_flatness_equals_the_commutator_norm_on_the_same_state(kind, monkeypatch):
    # p' is even, so d_j H_i - d_i H_j is exactly zero: the flatness residual
    # is the largest commutator norm on the same random state, and the
    # curvature rows equal those of the CSR derivative products
    monkeypatch.setattr(kz, "SWEEP_ROWS", 7)  # 30 states: blocks end inside the sector
    params = PAIRS.replace(kind=kind)
    conn = KzConnection(params, W221)
    v = StateVector.random(W221, np.random.default_rng(12)).amplitudes
    largest = max_or_nan([0.0, *commutator_norms(conn, v)])
    assert largest > 0.0
    assert flatness_residual(params, W221, np.random.default_rng(12)) == largest
    rows, oracle = kz._curvature_rows(conn, v), curvature_rows_csr(conn, v)
    for lo in range(0, 30, 7):
        np.testing.assert_array_equal(rows(lo, min(lo + 7, 30)), oracle(lo, min(lo + 7, 30)))
    # with an odd p' every pair adds hbar (a - b) v[perm]; the oracle rounds
    # a v[perm] and b v[perm] apart, so the two agree to rounding only
    even = PairKernel.dp
    monkeypatch.setattr(PairKernel, "dp", lambda self, dx, order: even(self, dx, order) * dx)
    conn = KzConnection(params, W221)
    got, want = kz._curvature_rows(conn, v)(0, 30), curvature_rows_csr(conn, v)(0, 30)
    assert np.max(np.abs(want)) > 0.1
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


def test_single_site_sweeps_are_empty():
    params = ModelParams(n=1, N=1, x=(0.0,), g=(1.0,), hbar=1.0, kappa=0.3)
    w = WeightVector((1,))
    assert commutator_norms(KzConnection(params, w), np.ones(1, dtype=complex)).shape == (0,)
    assert _suite_commutativity(params, w, np.random.default_rng(0)) == 0.0
    assert flatness_residual(params, w, np.random.default_rng(0)) == 0.0


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_cached_h_actions_match_per_pair_recomputation(kind, monkeypatch):
    # the commutator oracle (H_i v computed once per site), the row blocks of
    # the commutator and curvature sweeps and the covariant powers all equal,
    # bitwise, applying H_j then H_i afresh for every pair and every order;
    # the trigonometric H_i carry T_ij with its zero-sign rows
    monkeypatch.setattr(kz, "SWEEP_ROWS", 7)  # 30 states: blocks end inside the sector
    params = PAIRS.replace(kind=kind)
    conn = KzConnection(params, W221)
    hbar = params.hbar
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]

    v = StateVector.random(W221, np.random.default_rng(11)).amplitudes
    comms = []
    for i, j in pairs:
        Hi, Hj = conn.hamiltonian(i), conn.hamiltonian(j)
        comms.append(Hi.matvec(Hj.matvec(v)) - Hj.matvec(Hi.matvec(v)))
    cached = list(commutator_actions(conn, v))
    assert [(i, j) for i, j, _ in cached] == pairs
    for (_, _, got), want in zip(cached, comms):
        np.testing.assert_array_equal(got, want)
    curvature = []
    for (i, j), comm in zip(pairs, comms):
        dji = conn.derivative(i, j).matvec(v)
        dij = conn.derivative(j, i).matvec(v)
        curvature.append(hbar * (dji - dij) + comm)

    block_rows = [(lo, min(lo + 7, 30)) for lo in range(0, 30, 7)]
    for sweep, vectors in ((kz._commutator_rows, comms), (kz._curvature_rows, curvature)):
        rows = sweep(conn, v)
        for lo, hi in block_rows:
            C = rows(lo, hi)
            assert C.shape == (len(pairs), hi - lo)
            for p, vec in enumerate(vectors):
                np.testing.assert_array_equal(C[p], vec[lo:hi])

    def norms(vectors):
        # the sweeps' reduction applied to the oracle's vectors: squared
        # moduli summed within each block, then over the blocks in row order
        total = np.zeros(len(pairs))
        for lo, hi in block_rows:
            C = np.stack([vec[lo:hi] for vec in vectors])
            total += np.sum(C.real * C.real + C.imag * C.imag, axis=1)
        return np.sqrt(total)

    def reduced(vectors):
        return max_or_nan([0.0, *norms(vectors)])

    np.testing.assert_array_equal(commutator_norms(conn, v), norms(comms))

    assert _suite_commutativity(params, W221, np.random.default_rng(11)) == reduced(comms)
    assert flatness_residual(params, W221, np.random.default_rng(11)) == reduced(curvature)
    assert reduced(comms) < 1e-12 and reduced(curvature) < 1e-12
    # the block-ordered sum of squares is the 2-norm to a few roundings per entry
    want = [np.linalg.norm(c) for c in comms]
    np.testing.assert_allclose(commutator_norms(conn, v), want, rtol=1e-14, atol=0)

    phi = StateVector(W221, v)
    ders = mc_derivatives(phi, conn, max_order=3)
    for i in range(1, 6):
        H, dH, d2H = conn.hamiltonian(i), conn.derivative(i), conn.derivative(i, order=2)
        powers = [
            H.matvec(v),
            hbar * dH.matvec(v) + H.matvec(H.matvec(v)),
            hbar**2 * d2H.matvec(v)
            + 2.0 * hbar * dH.matvec(H.matvec(v))
            + hbar * H.matvec(dH.matvec(v))
            + H.matvec(H.matvec(H.matvec(v))),
        ]
        for k, power in enumerate(powers, 1):
            assert ders[k - 1, i - 1] == complex(np.sum(power)) / hbar**k
            assert mc_derivatives(phi, conn, max_order=k)[k - 1, i - 1] == ders[k - 1, i - 1]
            np.testing.assert_array_equal(covariant_power(i, k, phi, conn).amplitudes, power)
