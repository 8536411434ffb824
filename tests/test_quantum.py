import numpy as np
import oracles
import pytest

from kzcal import quantum
from kzcal.core import ModelParams, StateVector, WeightVector, get_basis
from kzcal.errors import DegenerateProjectionWarning, UnsupportedRelationError
from kzcal.instances import random_instance, rng_for
from kzcal.kz import KzConnection, PathSpec, integrate_path, mc_derivatives
from kzcal.quantum import (
    calogero_energy,
    h2_covector_residual,
    h3_covector_residual,
    momentum_covector_residual,
    pde_residual_on_solution,
)

HAND = ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.3)
W11 = WeightVector((1, 1))


def test_energy_classical_special_case():
    # all occupations 1: the eigenvalue is the plain sum of squared twists
    params = ModelParams(n=3, N=3, x=(0.0, 1.0, 2.0), g=(1.0, 2.0, 3.0), hbar=1.0, kappa=0.2)
    w = WeightVector((1, 1, 1))
    assert calogero_energy(w, params, 2) == pytest.approx(1 + 4 + 9)


def test_energy_trig_hand_value():
    params = ModelParams(
        n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.5,
        kind="trigonometric", gamma=1.0,
    )
    # occupations (2, 0): 2*1 + (0.25/3) * 2*(4-1) = 2.5
    assert calogero_energy(WeightVector((2, 0)), params, 2) == pytest.approx(2.5)


def test_energy_quadratic_homogeneity():
    params = HAND
    w = WeightVector((1, 1))
    base = calogero_energy(w, params, 2)
    scaled = calogero_energy(w, params.replace(g=(3.0, 6.0)), 2)
    assert scaled == pytest.approx(9 * base)


def test_energy_unsupported_combination():
    trig = HAND.replace(kind="trigonometric", gamma=0.5)
    with pytest.raises(UnsupportedRelationError):
        calogero_energy(W11, trig, 3)
    with pytest.raises(UnsupportedRelationError):
        calogero_energy(W11, HAND, 4)


def test_h2_hand_instance():
    assert h2_covector_residual(HAND, W11) < 1e-13


def test_h2_decoupled_kappa_zero():
    params = HAND.replace(kappa=0.0)
    assert h2_covector_residual(params, W11) < 1e-15
    # decoupled: per-basis-state letter counting gives the eigenvalue exactly
    basis = get_basis(W11)
    g = np.asarray(params.g)
    for row in basis.states:
        assert np.sum(g[row - 1] ** 2) == pytest.approx(calogero_energy(W11, params, 2))


def test_h3_hand_instance():
    assert h3_covector_residual(HAND, W11) < 1e-12


def test_h3_trig_unsupported():
    trig = HAND.replace(kind="trigonometric", gamma=0.5)
    with pytest.raises(UnsupportedRelationError):
        h3_covector_residual(trig, W11)


def test_h3_decoupled_kappa_zero():
    params = HAND.replace(kappa=0.0)
    assert h3_covector_residual(params, W11) < 1e-15
    basis = get_basis(W11)
    g = np.asarray(params.g)
    for row in basis.states:
        assert np.sum(g[row - 1] ** 3) == pytest.approx(calogero_energy(W11, params, 3))


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_h2_random_instances(kind):
    for k in range(12):
        rng = rng_for(77, "h2", kind, k)
        n = int(rng.integers(2, 7))
        N = int(rng.integers(2, 4))
        params, weight = random_instance(rng, n, N, kind=kind)
        assert h2_covector_residual(params, weight) < 1e-11


def test_h3_random_instances():
    for k in range(12):
        rng = rng_for(78, "h3", k)
        n = int(rng.integers(2, 6))
        N = int(rng.integers(2, 4))
        params, weight = random_instance(rng, n, N)
        assert h3_covector_residual(params, weight) < 1e-10


def test_momentum_random_instances():
    for kind in ("rational", "trigonometric"):
        for k in range(8):
            rng = rng_for(79, "momentum", kind, k)
            params, weight = random_instance(rng, 5, 3, kind=kind)
            assert momentum_covector_residual(params, weight) < 1e-12


def test_h2_exact_in_hbar():
    # the covector identity holds identically in hbar
    w = WeightVector((2, 1))
    for hbar in (0.3, 1.0, 4.7, -2.0):
        params = ModelParams(
            n=3, N=2, x=(0.0, 0.9, 2.1), g=(1.1, 2.3), hbar=hbar, kappa=0.4
        )
        assert h2_covector_residual(params, w) < 1e-13


# -- PDE residuals on integrated solutions --------------------------------------


@pytest.fixture(scope="module")
def propagated_state():
    params = ModelParams(n=3, N=2, x=(0.0, 1.0, 2.2), g=(1.0, 2.0), hbar=1.0, kappa=0.25)
    weight = WeightVector((2, 1))
    conn = KzConnection(params, weight)
    path = PathSpec(
        start=(-0.15, 0.9, 2.3),
        waypoints=((0.0, 1.0, 2.2),),
        tolerance=1e-11,
        atol=1e-13,
    )
    start_conn = KzConnection(params.replace(x=(-0.15, 0.9, 2.3)), weight)
    state = integrate_path(StateVector.uniform(weight), path, start_conn)
    return state, conn


def test_pde_residual_h2(propagated_state):
    state, conn = propagated_state
    assert pde_residual_on_solution(state, conn, "h2") < 1e-9


def test_pde_residual_h3(propagated_state):
    state, conn = propagated_state
    assert pde_residual_on_solution(state, conn, "h3") < 1e-8


def test_pde_residual_momentum(propagated_state):
    state, conn = propagated_state
    assert pde_residual_on_solution(state, conn, "momentum") < 1e-10


def test_pde_residual_trig():
    params = ModelParams(
        n=3, N=2, x=(0.0, 1.0, 2.2), g=(1.0, 2.0), hbar=1.0, kappa=0.25,
        kind="trigonometric", gamma=0.6,
    )
    weight = WeightVector((2, 1))
    conn = KzConnection(params, weight)
    rng = np.random.default_rng(11)
    state = StateVector.random(weight, rng)
    # covector identity: any state works, not only KZ solution values
    assert pde_residual_on_solution(state, conn, "h2") < 1e-11


def test_pde_residual_degenerate_projection():
    conn = KzConnection(HAND, W11)
    state = StateVector(W11, np.array([1.0, -1.0]))  # projection is zero
    with pytest.warns(DegenerateProjectionWarning):
        res = pde_residual_on_solution(state, conn, "h2")
    assert res >= 0.0


# -- the float64 path of a real state --------------------------------------------

W332 = WeightVector((3, 3, 2))  # dim 560: a real sum there is not the complex sum's bits


def _sector(kind):
    x = tuple(1.1 * k - 4.0 + 0.05 * np.sin(k) for k in range(8))
    params = ModelParams(
        n=8, N=3, x=x, g=(1.1, 2.05, 2.9), hbar=0.9, kappa=0.35, kind=kind, gamma=0.6
    )
    return KzConnection(params, W332)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype == np.complex128
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_real_state_derivatives_match_the_complex_path(kind, monkeypatch):
    # a state with zero imaginary part runs its covariant powers in float64;
    # the derivatives and the residuals keep the bits of complex arithmetic
    conn = _sector(kind)
    state = StateVector(W332, np.random.default_rng(31).standard_normal(W332.dimension()))
    for max_order in (1, 2, 3):
        want = oracles.mc_derivatives_complex(state, conn, max_order)
        _assert_bitwise(mc_derivatives(state, conn, max_order), want)
    relations = ["momentum", "h2"] + (["h3"] if kind == "rational" else [])
    got = [pde_residual_on_solution(state, conn, rel) for rel in relations]
    monkeypatch.setattr(quantum, "mc_derivatives", oracles.mc_derivatives_complex)
    want = [pde_residual_on_solution(state, conn, rel) for rel in relations]
    assert [r.hex() for r in got] == [r.hex() for r in want]


def test_state_with_an_imaginary_part_takes_complex_arithmetic():
    # one nonzero imaginary amplitude is enough to keep the complex path
    conn = _sector("rational")
    amps = np.random.default_rng(32).standard_normal(W332.dimension()).astype(complex)
    amps[100] += 0.25j
    state = StateVector(W332, amps)
    got = mc_derivatives(state, conn, 3)
    assert np.all(got.imag != 0.0)
    _assert_bitwise(got, oracles.mc_derivatives_complex(state, conn, 3))
