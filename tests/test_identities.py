import math
import tracemalloc
from itertools import permutations, product

import numpy as np
import oracles
import pytest

from kzcal import identities
from kzcal.config import validate_config
from kzcal.core import ModelParams, StateVector, WeightVector, get_basis, omega_pairing
from kzcal.identities import (
    verify_omega_weight_identity,
    verify_rational_scalar_identities,
    verify_t_case_tables,
    verify_trig_identities,
    verify_twist_sum_identities,
)
from kzcal.instances import random_coordinates, random_instance, rng_for
from kzcal.kernel import diag_term
from kzcal.operators import RowKernel, t_operator
from kzcal.suites import run_suites


def T(i, j, state):
    return t_operator(i, j, state.weight).apply(state)


def test_scalar_identities_three_points():
    report = verify_rational_scalar_identities((0.0, 1.0, 2.0))
    assert report["pair_product"] < 1e-14
    assert report["partial_fraction"] < 1e-14
    # the four-index sum needs n >= 4: empty here, exactly zero
    assert report["triple_product"] == 0.0


def test_scalar_identities_four_points():
    report = verify_rational_scalar_identities((0.0, 1.0, 2.0, 3.0))
    assert report["triple_product"] < 1e-13


def test_scalar_identities_random():
    for k in range(20):
        rng = rng_for(41, "scalar", k)
        x = random_coordinates(rng, 6, min_gap=0.15)
        assert max(verify_rational_scalar_identities(x).values()) < 1e-12


def test_scalar_identities_empty_for_two_points():
    report = verify_rational_scalar_identities((0.0, 1.0))
    assert report["pair_product"] == 0.0
    assert report["triple_product"] == 0.0


@pytest.mark.parametrize("n", range(1, 9))
def test_identity_sums_match_the_loops(n):
    # the index-array sums and the twist sums against one term at a time, bit for bit
    for kind in ("rational", "trigonometric"):
        for k in range(6):
            rng = rng_for(46, "loops", kind, n, k)
            params, weight = random_instance(rng, n, int(rng.integers(1, 4)), kind=kind)
            want = oracles.scalar_identity_loops(params.x, params.gamma)
            trig = verify_trig_identities(params.replace(kind="trigonometric"), weight)
            got = {**verify_rational_scalar_identities(params.x), **trig}
            for name, value in want.items():
                assert got[name].hex() == value.hex(), name
            twist = oracles.twist_sum_loops(params, weight)
            assert verify_twist_sum_identities(params, weight) == twist


def test_twist_sums_pairwise_cancellation():
    params = ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.3)
    assert max(verify_twist_sum_identities(params, WeightVector((1, 1))).values()) < 1e-15


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_twist_sums_random(kind):
    for k in range(10):
        rng = rng_for(42, "twist", kind, k)
        params, weight = random_instance(rng, 5, 3, kind=kind)
        assert max(verify_twist_sum_identities(params, weight).values()) < 1e-12


def test_omega_weight_identity_one_hot():
    params = ModelParams(n=3, N=2, x=(0.0, 1.0, 2.0), g=(1.5, 2.5), hbar=1.0, kappa=0.3)
    weight = WeightVector((2, 1))
    # per-basis-state letter counting, quadratic and cubic
    assert max(verify_omega_weight_identity(params, weight).values()) < 1e-13
    basis = get_basis(weight)
    g = np.asarray(params.g)
    for row in basis.states:
        assert np.sum(g[row - 1] ** 2) == pytest.approx(2 * 1.5**2 + 2.5**2)
        assert np.sum(g[row - 1] ** 3) == pytest.approx(2 * 1.5**3 + 2.5**3)


def test_omega_weight_identity_random():
    for k in range(10):
        rng = rng_for(43, "omega", k)
        params, weight = random_instance(rng, 6, 3)
        assert max(verify_omega_weight_identity(params, weight).values()) < 1e-13


def test_trig_identities_single_species_all_vanish():
    # one letter only: every signed swap annihilates, both sides are zero
    params = ModelParams(
        n=4, N=1, x=(0.0, 0.8, 1.7, 2.9), g=(1.2,), hbar=1.0, kappa=0.4,
        kind="trigonometric", gamma=0.7, strict=False,
    )
    weight = WeightVector((4,))
    report = verify_trig_identities(params, weight)
    assert report["t_square_sum"] == 0.0
    assert report["t_triple_sum"] == 0.0
    assert report["coth_pair_product"] < 1e-13


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
    assert verify_trig_identities(params, weight)["t_square_sum"] < 1e-13


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
    assert verify_trig_identities(params, weight)["t_triple_sum"] < 1e-13


@pytest.mark.parametrize("M", [(1, 11), (2, 10), (3, 2, 2), (2, 2, 1), (5,), (1, 1, 1, 1)])
def test_t_triple_row_matches_per_triple_oracle(M):
    # the covectors summed over j before T_il^T applies: the same row, bit for bit
    weight = WeightVector(M)
    got = identities._t_triple_row(weight)
    want = oracles.t_triple_row_per_triple(weight)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", ["trigonometric"])
def test_trig_identities_random(kind):
    for k in range(10):
        rng = rng_for(44, "trig", k)
        params, weight = random_instance(rng, int(rng.integers(3, 7)), 3, kind=kind)
        report = verify_trig_identities(params, weight)
        for name, value in report.items():
            assert value < 1e-11, name


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


def test_t_case_tables_with_letters_above_127():
    # letters 1, 129 and 130 of N = 130 at n = 4: the ranks of the swapped
    # and cycled states, against the sparse oracle's base-N codes
    weight = WeightVector(tuple({1: 1, 129: 2, 130: 1}.get(a, 0) for a in range(1, 131)))
    assert get_basis(weight).states.max() == 130
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
            op.terms = op.terms + [diag_term(np.ones((1, weight.N)), (0,))]
        return op

    monkeypatch.setattr(identities, "t_operator", plus_identity)
    monkeypatch.setattr(oracles, "t_operator", plus_identity)
    weight = WeightVector((2, 1))
    assert verify_t_case_tables(weight) == math.inf
    assert oracles.t_case_tables_sparse(weight) > 0.0


def _params_for(weight, kind, seed):
    """Random coordinates, twists and couplings for the weight's n and N."""
    rng = rng_for(seed, "oracle-params", kind, weight.M)
    params, _ = random_instance(rng, weight.n, weight.N, kind=kind)
    return params


def _assert_identities_match_the_oracles(weight, seed):
    # every pair and triple sum against its one-term-at-a-time oracle, bit
    # for bit, in both kinds
    for kind in ("rational", "trigonometric"):
        params = _params_for(weight, kind, seed)
        assert verify_twist_sum_identities(params, weight) == oracles.twist_sum_loops(
            params, weight
        )
        trig = verify_trig_identities(params.replace(kind="trigonometric"), weight)
        got = {**verify_rational_scalar_identities(params.x), **trig}
        for name, value in oracles.scalar_identity_loops(params.x, params.gamma).items():
            assert got[name].hex() == value.hex(), name
    got = identities._t_triple_row(weight)
    np.testing.assert_array_equal(got, oracles.t_triple_row_per_triple(weight))


@pytest.mark.parametrize("n", range(1, 8))
def test_identities_match_the_oracles_on_every_weight(n):
    for weight in _weights(n, 1) + _weights(n, 2) + _weights(n, 3):
        _assert_identities_match_the_oracles(weight, 47)
        if n == 7 or weight.N == 1:  # the others: test_t_case_tables_match_sparse_oracle
            assert verify_t_case_tables(weight) == oracles.t_case_tables_sparse(weight) == 0.0


@pytest.mark.parametrize("M", [(1, 11), (2, 10)])
def test_identities_match_the_oracles_n12(M):
    _assert_identities_match_the_oracles(WeightVector(M), 48)


def test_identities_match_the_oracles_with_letters_above_127():
    weight = WeightVector(tuple({1: 1, 129: 2, 130: 1}.get(a, 0) for a in range(1, 131)))
    _assert_identities_match_the_oracles(weight, 49)


def test_identities_match_the_oracles_over_split_state_blocks(monkeypatch):
    # 7-state blocks end inside the sectors (dims 30, 210 and 60); the
    # squared signed swaps have no oracle, so they match the one-block value
    trig = _params_for(WeightVector((3, 2, 2)), "trigonometric", 56)
    whole = verify_trig_identities(trig, WeightVector((3, 2, 2)))
    monkeypatch.setattr(identities, "SWEEP_ROWS", 7)
    assert verify_trig_identities(trig, WeightVector((3, 2, 2))) == whole
    for M in [(2, 2, 1), (3, 2, 2), (1, 2, 3)]:
        weight = WeightVector(M)
        basis = get_basis(weight)
        blocks = list(identities._state_blocks(basis))
        assert [lo for lo, _ in blocks] == list(range(0, basis.dim, 7))
        np.testing.assert_array_equal(np.hstack([s for _, s in blocks]), basis.states.T)
        for seed in range(50, 55):
            _assert_identities_match_the_oracles(weight, seed)
        assert verify_t_case_tables(weight) == oracles.t_case_tables_sparse(weight) == 0.0


def test_each_t_operator_is_built_once_per_sector(monkeypatch):
    # the triple row and the case tables read the same materialized T_ij
    built = []

    def counting(i, j, weight):
        built.append((i, j))
        return t_operator(i, j, weight)

    monkeypatch.setattr(identities, "t_operator", counting)
    weight = WeightVector((2, 2, 1))
    params = _params_for(weight, "trigonometric", 57)
    assert verify_trig_identities(params, weight)["t_triple_sum"] < 1e-13
    assert verify_t_case_tables(weight) == 0.0
    assert sorted(built) == [(i, j) for i in range(1, 6) for j in range(1, 6) if i != j]


def test_t_case_tables_hold_their_blocks_in_bounded_memory():
    # (6, 6), dim 924: the blocks are sized by bytes, so the traced peak of
    # the whole check (the T maps included) stays at or below 16 MB, with the
    # exact result; all pairs and triples of a 924-state block took 140 MB
    weight = WeightVector((6, 6))
    get_basis(weight).site_table(0)
    identities._t_maps.cache_clear()
    tracemalloc.start()
    try:
        assert verify_t_case_tables(weight) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_t_maps_match_the_csr_oracle():
    # each T_ij's column and signed value from its row kernel, against the
    # maps read back from its CSR matrix; an empty row (equal letters) has
    # value 0 both ways, at its own row here and at column 0 there
    weights = _weights(5, 2) + _weights(4, 3) + [WeightVector((1, 11)), WeightVector((2, 2, 2))]
    for weight in weights:
        identities._t_maps.cache_clear()
        col, val = identities._t_maps(weight, t_operator)
        want_col, want_val = oracles.t_maps_csr(weight, t_operator)
        assert not (col.flags.writeable or val.flags.writeable)
        np.testing.assert_array_equal(val, want_val)
        full = val != 0.0
        np.testing.assert_array_equal(col[full], want_col[full])
    identities._t_maps.cache_clear()


def test_identities_assemble_no_csr_matrix(monkeypatch, tmp_path):
    # an identities run with every CSR assembly raising gives the residuals
    # of the run that reads the T maps back from CSR matrices, bit for bit
    config = validate_config({
        "suites": ["identities"],
        "seed": 11,
        "instance": {"random": {"n": 6, "N": 3, "count": 3}},
    })
    explicit = validate_config({
        "suites": ["identities"],
        "seed": 12,
        "instance": {"explicit": {
            "n": 12, "N": 2, "x": [float(1.1 * k + 0.05 * k * k) for k in range(12)],
            "g": [1.2, 2.1], "hbar": 1.0, "kappa": 0.4, "weight": [2, 10],
        }},
    })

    def bits(report):
        return [r.hex() for suite in report.suites.values() for r in suite.residuals]

    with monkeypatch.context() as patch:
        patch.setattr(identities, "_t_maps", oracles.t_maps_csr)
        want = [bits(run_suites(c)) for c in (config, explicit)]

    def no_csr(self):
        raise AssertionError("a CSR matrix was assembled")

    monkeypatch.setattr(RowKernel, "csr", no_csr)
    assert [bits(run_suites(c)) for c in (config, explicit)] == want


def test_index_tuples_are_made_once_and_read_only():
    for n, k in ((1, 2), (5, 2), (6, 3), (12, 4)):
        rows = identities._tuples(n, k)
        assert rows is identities._tuples(n, k) and not rows.flags.writeable
        want = np.array(list(permutations(range(n), k)), dtype=np.intp).reshape(-1, k)
        np.testing.assert_array_equal(rows.T, want)
