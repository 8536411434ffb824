import itertools
import math
import warnings

import numpy as np
import pytest

from kzcal.core import (
    ModelParams,
    StateVector,
    WeightBasis,
    WeightVector,
    _enumerate_states,
    get_basis,
    omega_pairing,
    weight_of,
)
from kzcal.errors import (
    DimensionCapError,
    InvalidIndexError,
    InvalidParamsError,
    InvalidWeightError,
    ModelAssumptionWarning,
    SingularConfigurationError,
)
from kzcal.operators import permutation_operator

from oracles import swap_table_search


def states_of(weight):
    """The basis multi-indices as tuples, in enumeration order."""
    return [tuple(int(v) for v in row) for row in get_basis(weight).states]


def test_enumerate_basis_two_sites():
    assert states_of(WeightVector((1, 1))) == [(1, 2), (2, 1)]


def test_enumerate_basis_dimension():
    states = states_of(WeightVector((2, 2)))
    assert len(states) == 6  # 4!/(2!2!)


def test_enumerate_basis_single_species():
    assert states_of(WeightVector((3,))) == [(1, 1, 1)]


@pytest.mark.parametrize(
    "n,M",
    [(4, (2, 2)), (5, (2, 2, 1)), (6, (3, 3)), (6, (2, 2, 2)), (3, (1, 1, 1))],
)
def test_enumerate_basis_properties(n, M):
    weight = WeightVector(M)
    weight.validate_for(n)
    states = states_of(weight)
    # multinomial count, lexicographic order, no repeats
    expected = math.factorial(n)
    for m in M:
        expected //= math.factorial(m)
    assert len(states) == expected
    assert states == sorted(states)
    assert len(set(states)) == len(states)
    for J in states:
        assert weight_of(J, len(M)) == weight


def test_enumerate_basis_weight_mismatch():
    with pytest.raises(InvalidWeightError):
        WeightVector((1, 1)).validate_for(3)


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        get_basis(WeightVector((5, 5)), dim_cap=100)


def test_weight_of_examples():
    assert weight_of((1, 2, 1), 2) == WeightVector((2, 1))
    assert weight_of((3, 3, 3), 3) == WeightVector((0, 0, 3))
    assert weight_of((1, 2, 3), 3) == WeightVector((1, 1, 1))
    with pytest.raises(InvalidIndexError):
        weight_of((0, 1), 2)
    with pytest.raises(InvalidIndexError):
        weight_of((1, 4), 3)


def test_omega_pairing_values():
    w = WeightVector((1, 1))
    assert omega_pairing(StateVector(w, np.array([1.0, 1.0]))) == 2.0
    state = StateVector(WeightVector((2, 1)), np.array([0.5, -0.5 + 2j, 1.0]))
    assert omega_pairing(state) == pytest.approx(1 + 2j)


def test_omega_pairing_basis_states():
    w = WeightVector((2, 1))
    for J in states_of(w):
        assert omega_pairing(StateVector.basis_state(w, J)) == 1.0


def test_omega_pairing_permutation_invariant():
    rng = np.random.default_rng(3)
    w = WeightVector((2, 2))
    state = StateVector.random(w, rng)
    for i, j in [(1, 2), (1, 4), (2, 3)]:
        swapped = permutation_operator(i, j, w).apply(state)
        assert omega_pairing(swapped) == pytest.approx(omega_pairing(state), abs=1e-14)


def test_params_coincident_coordinates():
    with pytest.raises(SingularConfigurationError, match="epsilon_x"):
        ModelParams(n=2, N=2, x=(0.5, 0.5 + 1e-10), g=(1.0, 2.0), hbar=1.0, kappa=0.1)


def test_params_zero_hbar():
    with pytest.raises(InvalidParamsError):
        ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=0.0, kappa=0.1)


def test_params_duplicate_twists_strict_and_relaxed():
    with pytest.raises(InvalidParamsError):
        ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 1.0), hbar=1.0, kappa=0.1)
    with pytest.warns(ModelAssumptionWarning):
        ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 1.0), hbar=1.0, kappa=0.1, strict=False)


def test_params_n_below_N_warns():
    with pytest.warns(ModelAssumptionWarning, match="n=2 < N=3"):
        ModelParams(n=2, N=3, x=(0.0, 1.0), g=(1.0, 2.0, 3.0), hbar=1.0, kappa=0.1)


def test_params_trig_needs_gamma():
    with pytest.raises(InvalidParamsError):
        ModelParams(
            n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.1,
            kind="trigonometric", gamma=0.0,
        )


def test_state_vector_length_checked():
    with pytest.raises(InvalidWeightError):
        StateVector(WeightVector((1, 1)), np.array([1.0, 2.0, 3.0]))


def test_basis_rank_roundtrip():
    basis = get_basis(WeightVector((2, 2, 1)))
    for k, row in enumerate(basis.states):
        assert basis.index_of(tuple(row)) == k
    with pytest.raises(InvalidIndexError):
        basis.index_of((1, 1, 1, 1, 1))  # wrong weight


@pytest.mark.parametrize("M", [(3, 3), (2, 1, 2), (2, 3, 1, 2)])
def test_swap_table_matches_copy_and_encode(M):
    # the code arithmetic against exchanging the two columns of a copy of
    # the states and re-encoding, on every site pair
    basis = get_basis(WeightVector(M))
    states = basis.states
    for i in range(basis.n):
        for j in range(i + 1, basis.n):
            swapped = states.copy()
            swapped[:, [i, j]] = states[:, [j, i]]
            perm, sign = basis.swap_table(i, j)
            np.testing.assert_array_equal(perm, basis.rank(basis.encode(swapped)))
            np.testing.assert_array_equal(
                sign, np.sign(states[:, i].astype(int) - states[:, j].astype(int))
            )
            assert sign.dtype == np.int8
            assert basis.swap_table(j, i)[0] is perm


@pytest.mark.parametrize("M", [(3, 3), (2, 1, 2), (2, 3, 1, 2), (4, 4, 4)])
@pytest.mark.parametrize("order", ["near-first", "far-first"])
def test_swap_table_matches_search_oracle(M, order):
    # tables composed from the adjacent ones equal one search per pair,
    # dtypes included, whichever pair a fresh basis is asked for first
    basis = WeightBasis(WeightVector(M))
    pairs = [(i, j) for i in range(basis.n) for j in range(i + 1, basis.n)]
    if order == "far-first":
        pairs = [(j, i) for i, j in reversed(pairs)]
    for i, j in pairs:
        perm, sign = basis.swap_table(i, j)
        want_perm, want_sign = swap_table_search(basis, i, j)
        assert perm.dtype == want_perm.dtype and sign.dtype == want_sign.dtype
        np.testing.assert_array_equal(perm, want_perm)
        np.testing.assert_array_equal(sign, want_sign)


def test_enumerate_basis_large_subspace():
    # multinomial count holds at the tens-of-thousands scale too
    weight = WeightVector((9, 9))
    basis = get_basis(weight)
    assert basis.dim == math.comb(18, 9)
    assert tuple(basis.states[0]) == (1,) * 9 + (2,) * 9
    assert tuple(basis.states[-1]) == (2,) * 9 + (1,) * 9
    assert np.all(np.diff(basis.codes) > 0)  # strictly increasing = lex order


def _all_weights(max_n, max_N):
    """Every occupation vector with 1..max_N letters and n <= max_n, zeros included."""
    for N in range(1, max_N + 1):
        for M in itertools.product(range(max_n + 1), repeat=N):
            if sum(M) <= max_n:
                yield WeightVector(M)


@pytest.mark.parametrize(
    "weights",
    [list(_all_weights(7, 3)), [WeightVector((6, 5, 3))]],
    ids=["n<=7,N<=3", "653"],
)
def test_enumeration_matches_recursive_oracle(weights):
    from oracles import enumerate_states_recursive

    for weight in weights:
        got = _enumerate_states(weight)
        want = enumerate_states_recursive(weight)
        assert got.dtype == want.dtype and got.shape == want.shape, weight.M
        np.testing.assert_array_equal(got, want, err_msg=str(weight.M))


def test_uniform_and_basis_state_normalization():
    w = WeightVector((2, 1))
    uni = StateVector.uniform(w)
    assert uni.norm() == pytest.approx(1.0)
    one_hot = StateVector.basis_state(w, (1, 2, 1))
    assert one_hot.amplitudes[get_basis(w).index_of((1, 2, 1))] == 1.0
    assert one_hot.norm() == 1.0


def test_max_or_nan_keeps_nan_and_values():
    from kzcal.core import max_or_nan

    assert max([1e-15, float("nan")]) == 1e-15  # what the builtin does
    assert math.isnan(max_or_nan([1e-15, float("nan")]))
    assert math.isnan(max_or_nan([float("nan"), 1e-15]))
    values = [0.0, 3.5e-16, np.float64(1.25e-15), 7e-16]
    assert max_or_nan(values) == max(values)
