import math
from itertools import product

import numpy as np
import oracles
import pytest

from kzcal import identities
from kzcal.core import ModelParams, StateVector, WeightVector, get_basis, omega_pairing
from kzcal.identities import (
    rational_scalar_identity_report,
    verify_omega_weight_identity,
    verify_rational_scalar_identities,
    verify_t_case_tables,
    verify_trig_identities,
    verify_twist_sum_identities,
)
from kzcal.instances import random_coordinates, random_instance, rng_for
from kzcal.operators import t_operator


def T(i, j, state):
    return t_operator(i, j, state.weight).apply(state)


def test_scalar_identities_three_points():
    report = rational_scalar_identity_report((0.0, 1.0, 2.0))
    assert report["pair_product"].raw < 1e-14
    assert report["partial_fraction"].scaled < 1e-14
    # the four-index sum needs n >= 4: empty here, exactly zero
    assert report["triple_product"].raw == 0.0


def test_scalar_identities_four_points():
    report = rational_scalar_identity_report((0.0, 1.0, 2.0, 3.0))
    assert report["triple_product"].scaled < 1e-13


def test_scalar_identities_random():
    for k in range(20):
        rng = rng_for(41, "scalar", k)
        x = random_coordinates(rng, 6, min_gap=0.15)
        assert verify_rational_scalar_identities(x) < 1e-12


def test_scalar_identities_empty_for_two_points():
    report = rational_scalar_identity_report((0.0, 1.0))
    assert report["pair_product"].raw == 0.0
    assert report["triple_product"].raw == 0.0


def test_twist_sums_pairwise_cancellation():
    params = ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.3)
    assert verify_twist_sum_identities(params, WeightVector((1, 1))) < 1e-15


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_twist_sums_random(kind):
    for k in range(10):
        rng = rng_for(42, "twist", kind, k)
        params, weight = random_instance(rng, 5, 3, kind=kind)
        assert verify_twist_sum_identities(params, weight) < 1e-12


def test_omega_weight_identity_one_hot():
    params = ModelParams(n=3, N=2, x=(0.0, 1.0, 2.0), g=(1.5, 2.5), hbar=1.0, kappa=0.3)
    weight = WeightVector((2, 1))
    # per-basis-state letter counting, quadratic and cubic
    assert verify_omega_weight_identity(params, weight) < 1e-13
    basis = get_basis(weight)
    g = np.asarray(params.g)
    for row in basis.states:
        assert np.sum(g[row - 1] ** 2) == pytest.approx(2 * 1.5**2 + 2.5**2)
        assert np.sum(g[row - 1] ** 3) == pytest.approx(2 * 1.5**3 + 2.5**3)


def test_omega_weight_identity_random():
    for k in range(10):
        rng = rng_for(43, "omega", k)
        params, weight = random_instance(rng, 6, 3)
        assert verify_omega_weight_identity(params, weight) < 1e-13


def test_trig_identities_single_species_all_vanish():
    # one letter only: every signed swap annihilates, both sides are zero
    params = ModelParams(
        n=4, N=1, x=(0.0, 0.8, 1.7, 2.9), g=(1.2,), hbar=1.0, kappa=0.4,
        kind="trigonometric", gamma=0.7, strict=False,
    )
    weight = WeightVector((4,))
    report = verify_trig_identities(params, weight)
    assert report["t_square_sum"].raw == 0.0
    assert report["t_triple_sum"].raw == 0.0
    assert report["coth_pair_product"].scaled < 1e-13


def test_t_square_sum_coefficient_by_brute_force():
    # occupations (2, 1): coefficient -(n(n-1) - sum M(M-1)) = -(6 - 2) = -4
    params = ModelParams(
        n=3, N=2, x=(0.0, 1.0, 2.1), g=(1.0, 2.0), hbar=1.0, kappa=0.3,
        kind="trigonometric", gamma=0.6,
    )
    weight = WeightVector((2, 1))
    rng = np.random.default_rng(0)
    phi = StateVector.random(weight, rng)
    total = 0.0 + 0.0j
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                total += omega_pairing(T(i, j, T(i, j, phi)))
    assert total == pytest.approx(-4.0 * omega_pairing(phi), rel=1e-12)
    assert verify_trig_identities(params, weight)["t_square_sum"].scaled < 1e-13


def test_t_triple_sum_coefficient_by_brute_force():
    # occupations (1,1,1): coefficient -(1/3)(6 - 0) = -2
    params = ModelParams(
        n=3, N=3, x=(0.0, 1.0, 2.1), g=(1.0, 2.0, 3.0), hbar=1.0, kappa=0.3,
        kind="trigonometric", gamma=0.6,
    )
    weight = WeightVector((1, 1, 1))
    rng = np.random.default_rng(1)
    phi = StateVector.random(weight, rng)
    total = 0.0 + 0.0j
    from itertools import permutations

    for i, j, l in permutations((1, 2, 3), 3):
        total += omega_pairing(T(i, j, T(i, l, phi)))
    assert total == pytest.approx(-2.0 * omega_pairing(phi), rel=1e-12)
    assert verify_trig_identities(params, weight)["t_triple_sum"].scaled < 1e-13


@pytest.mark.parametrize("kind", ["trigonometric"])
def test_trig_identities_random(kind):
    for k in range(10):
        rng = rng_for(44, "trig", k)
        params, weight = random_instance(rng, int(rng.integers(3, 7)), 3, kind=kind)
        report = verify_trig_identities(params, weight)
        for name, entry in report.items():
            assert entry.scaled < 1e-11, name


def test_coth_sum_value_directly():
    # distinct ordered triples of coth pairs sum to n(n-1)(n-2)/3
    rng = rng_for(45, "coth", 0)
    x = np.asarray(random_coordinates(rng, 5, min_gap=0.2))
    gamma = 0.9
    total = 0.0
    from itertools import permutations

    for i, j, l in permutations(range(5), 3):
        total += (1 / np.tanh(gamma * (x[i] - x[j]))) * (1 / np.tanh(gamma * (x[i] - x[l])))
    assert total == pytest.approx(5 * 4 * 3 / 3.0, rel=1e-12)


def test_t_case_tables_exact_small():
    for M in [(1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2)]:
        assert verify_t_case_tables(WeightVector(M)) == 0.0


def _weights(n, N):
    return [WeightVector(M) for M in product(range(n + 1), repeat=N) if sum(M) == n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_t_case_tables_match_sparse_oracle(n):
    for weight in _weights(n, 2) + _weights(n, 3):
        assert verify_t_case_tables(weight) == oracles.t_case_tables_sparse(weight) == 0.0


@pytest.mark.parametrize("M", [(1, 11), (2, 10)])
def test_t_case_tables_match_sparse_oracle_n12(M):
    weight = WeightVector(M)
    assert verify_t_case_tables(weight) == oracles.t_case_tables_sparse(weight) == 0.0


def test_t_case_tables_catch_a_flipped_orientation(monkeypatch):
    # T_32 built with the orientation of T_23: the single action, the square
    # and the triples through that pair all go wrong, by the same amount in both
    def flipped(i, j, weight):
        op = t_operator(i, j, weight)
        if (i, j) == (3, 2):
            op.terms = [(tag, perm, sign, -coeff) for tag, perm, sign, coeff in op.terms]
        return op

    monkeypatch.setattr(identities, "t_operator", flipped)
    monkeypatch.setattr(oracles, "t_operator", flipped)
    for M in [(2, 1), (1, 1, 1), (2, 2), (3, 2, 1)]:
        weight = WeightVector(M)
        fast = verify_t_case_tables(weight)
        assert fast > 0.0
        assert fast == oracles.t_case_tables_sparse(weight)


def test_t_case_tables_reject_two_entries_in_a_row(monkeypatch):
    # T_12 + 1 stores two entries in the rows with distinct letters at sites
    # 1 and 2, which no signed swap does
    def plus_identity(i, j, weight):
        op = t_operator(i, j, weight)
        if (i, j) == (1, 2):
            op.terms = op.terms + [("diag", np.ones(op.dim))]
        return op

    monkeypatch.setattr(identities, "t_operator", plus_identity)
    monkeypatch.setattr(oracles, "t_operator", plus_identity)
    weight = WeightVector((2, 1))
    assert verify_t_case_tables(weight) == math.inf
    assert oracles.t_case_tables_sparse(weight) > 0.0
