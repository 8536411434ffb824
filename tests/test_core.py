import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kzcal.core import (
    ModelParams,
    StateVector,
    WeightBasis,
    WeightVector,
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


@pytest.mark.parametrize(
    "M",
    [(2.5, 1.5), (2, 0.5), (True, 1), (2, np.nan), (2, np.inf), ("2", 1), (2, None),
     (Fraction(10**310 + 1, 2), 1)],
)
def test_weight_rejects_non_integral_occupations(M):
    # int() would read 2.5 as 2 and True as 1; float() overflows on the last
    with pytest.raises(InvalidWeightError):
        WeightVector(M)


def test_weight_takes_integral_numbers():
    weight = WeightVector((2.0, np.int64(1), np.float32(0.0)))
    assert weight.M == (2, 1, 0) and all(type(m) is int for m in weight.M)
    # a 310-digit occupation is an integer, though no float holds it
    assert WeightVector((10**310, Fraction(4, 2))).M == (10**310, 2)


def test_dimension_over_many_species_is_computed_once():
    # a million species, four of them occupied: the multinomial of the
    # nonzero occupations, kept with the weight
    M = [0] * 10**6
    M[3], M[17], M[-1] = 2, 1, 1
    weight = WeightVector(tuple(M))
    assert weight.dimension() == math.factorial(4) // 2 == 12
    assert weight.__dict__["_dimension"] == 12
    assert weight == WeightVector(tuple(M)) and hash(weight) == hash(WeightVector(tuple(M)))


def test_random_twists_are_the_per_twist_draws():
    # one vector draw gives bitwise the twists (and leaves the stream where)
    # one uniform per twist did
    from kzcal.instances import random_coordinates, random_instance, rng_for

    for N in (1, 3, 7):
        params, weight = random_instance(rng_for(5, "twists", N), 7, N)
        rng = rng_for(5, "twists", N)
        assert random_coordinates(rng, 7) == params.x
        g = tuple(float(a + 1 + rng.uniform(-0.25, 0.25)) for a in range(N))
        assert params.g == g
        assert params.hbar == float(rng.uniform(0.6, 1.4))


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


@pytest.mark.parametrize("counts", [(True, 2), (2, True), (2.5, 2), (2, np.nan), ("2", 2)])
def test_params_reject_non_integral_site_counts(counts):
    # the occupation-number rule: True is not 1, and 2.5 is not 2
    n, N = counts
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        ModelParams(n=n, N=N, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.1)


def test_params_take_integral_site_counts():
    params = ModelParams(n=2.0, N=np.int64(2), x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.1)
    assert (params.n, params.N) == (2, 2) and type(params.n) is type(params.N) is int


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
        assert basis.rank([tuple(row)]).tolist() == [k]
    np.testing.assert_array_equal(basis.rank(basis.states), np.arange(basis.dim))
    with pytest.raises(InvalidIndexError):
        basis.rank([(1, 1, 1, 1, 1)])  # wrong weight
    # N = 4 with letter 2 unoccupied: a letter of 0 or N + 1, an unoccupied
    # letter, wrong counts or a wrong length make the whole call raise
    # InvalidIndexError, at any site; each bad row also follows the valid
    # states in one call
    gapped = get_basis(WeightVector((2, 0, 2, 1)))
    assert tuple(gapped.states[0]) == (1, 1, 3, 3, 4)
    bad_rows = [
        (1, 1, 3, 3, 0), (0, 1, 3, 3, 4), (1, 1, 3, 3, 5), (5, 1, 3, 3, 4),
        (1, 1, 3, 3, 2), (1, 2, 3, 3, 4), (4, 3, 3, 1, 2),
        (1, 1, 1, 3, 4), (3, 3, 3, 1, 4), (1, 1, 3, 4, 4), (4, 4, 4, 4, 4),
        (-1, 1, 3, 3, 4), (1, 1, 3, 3, -128), (10**6, 1, 3, 3, 4), (1, 1, 3, 3, 2**40),
    ]
    for bad in bad_rows:
        with pytest.raises(InvalidIndexError):
            gapped.rank([bad])
        with pytest.raises(InvalidIndexError):
            gapped.rank(np.vstack([gapped.states, np.array([bad], dtype=np.int64)]))
    for rows in ((1, 1, 3, 3, 4), (), [(1, 1, 3, 3)], [(1, 1, 3, 3, 4, 4)], [()]):
        with pytest.raises(InvalidIndexError):
            gapped.rank(rows)  # a bare row, or rows of other than 5 letters


@pytest.mark.parametrize(
    "M",
    [(63, 1), (64, 1), (1, 70), {129: 1, 130: 1}, {1: 2, 128: 1, 100_000: 1}],
    ids=["63-1", "64-1", "1-70", "N130", "N100000"],
)
def test_rank_where_base_n_codes_overflow(M):
    # letters at or above 128 and N^(n-1) >= 2^63, against the recursive
    # enumeration and a dictionary of its rows
    from oracles import enumerate_states_recursive

    if isinstance(M, dict):
        M = tuple(M.get(a, 0) for a in range(1, max(M) + 1))
    basis = WeightBasis(WeightVector(M))
    want = enumerate_states_recursive(basis.weight)
    assert basis.states.dtype == want.dtype
    np.testing.assert_array_equal(basis.states, want)
    np.testing.assert_array_equal(basis.rank(want), np.arange(basis.dim))
    row_of = {tuple(row): k for k, row in enumerate(want.tolist())}
    for i in range(basis.n):
        for j in range(i + 1, basis.n):
            swapped = want.copy()
            swapped[:, [i, j]] = want[:, [j, i]]
            perm, sign = basis.swap_table(i, j), basis.swap_sign(i, j)
            assert perm.tolist() == [row_of[tuple(row)] for row in swapped.tolist()]
            assert sign.dtype == np.int8
            np.testing.assert_array_equal(sign, np.sign(want[:, i].astype(int) - want[:, j]))


@pytest.mark.parametrize("M", [(3, 3), (2, 1, 2), (2, 3, 1, 2)])
def test_swap_table_matches_copy_and_encode(M):
    # the site tables against exchanging the two columns of a copy of the
    # states and ranking the copy, on every site pair
    basis = get_basis(WeightVector(M))
    states = basis.states
    for i in range(basis.n):
        for j in range(i + 1, basis.n):
            swapped = states.copy()
            swapped[:, [i, j]] = states[:, [j, i]]
            perm, sign = basis.swap_table(i, j), basis.swap_sign(i, j)
            np.testing.assert_array_equal(perm, basis.rank(swapped))
            np.testing.assert_array_equal(
                sign, np.sign(states[:, i].astype(int) - states[:, j].astype(int))
            )
            assert sign.dtype == np.int8
            assert basis.swap_table(j, i) is perm and basis.swap_sign(j, i) is sign


@pytest.mark.parametrize("M", [(1,), (1, 1), (3, 3), (2, 1, 2), (2, 3, 1, 2)])
def test_site_tables_hold_each_pair_in_both_sites(M):
    # column c of S_i exchanges site i with its c-th other site; the swap
    # tables are views of them, and a signed swap's sign is sign(r - perm[r])
    basis = WeightBasis(WeightVector(M))
    rows = np.arange(basis.dim)
    for i in range(basis.n):
        table = basis.site_table(i)
        assert table.dtype == np.int32 and table.flags.c_contiguous
        assert table.shape == (basis.dim, basis.n - 1)
        others = [k for k in range(basis.n) if k != i]
        for c, k in enumerate(others):
            perm, sign = basis.swap_table(i, k), basis.swap_sign(i, k)
            np.testing.assert_array_equal(table[:, c], perm)
            np.testing.assert_array_equal(np.sign(rows - perm), sign)
            assert np.shares_memory(perm, basis.site_table(min(i, k)))


@pytest.mark.parametrize("M", [(3, 3), (2, 1, 2), (2, 3, 1, 2), (4, 4, 4)])
@pytest.mark.parametrize("order", ["near-first", "far-first"])
def test_swap_table_matches_search_oracle(M, order):
    # tables composed from the adjacent ones equal one search per pair,
    # whichever pair a fresh basis is asked for first; the searched perm is
    # intp, the site tables hold int32
    basis = WeightBasis(WeightVector(M))
    pairs = [(i, j) for i in range(basis.n) for j in range(i + 1, basis.n)]
    if order == "far-first":
        pairs = [(j, i) for i, j in reversed(pairs)]
    for i, j in pairs:
        perm, sign = basis.swap_table(i, j), basis.swap_sign(i, j)
        want_perm, want_sign = swap_table_search(basis, i, j)
        assert perm.dtype == np.int32 and sign.dtype == want_sign.dtype
        np.testing.assert_array_equal(perm, want_perm)
        np.testing.assert_array_equal(sign, want_sign)


def test_enumerate_basis_large_subspace():
    # multinomial count holds at the tens-of-thousands scale too
    weight = WeightVector((9, 9))
    basis = get_basis(weight)
    assert basis.dim == math.comb(18, 9)
    assert tuple(basis.states[0]) == (1,) * 9 + (2,) * 9
    assert tuple(basis.states[-1]) == (2,) * 9 + (1,) * 9
    # strictly increasing in lexicographic order: the first letter in which
    # consecutive states differ grows
    step = np.diff(basis.states.astype(int), axis=0)
    assert np.all(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] > 0)


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
        got = WeightBasis(weight).states
        want = enumerate_states_recursive(weight)
        assert got.dtype == want.dtype and got.shape == want.shape, weight.M
        np.testing.assert_array_equal(got, want, err_msg=str(weight.M))


def test_uniform_and_basis_state_normalization():
    w = WeightVector((2, 1))
    uni = StateVector.uniform(w)
    assert uni.norm() == pytest.approx(1.0)
    one_hot = StateVector.basis_state(w, (1, 2, 1))
    assert one_hot.amplitudes[get_basis(w).rank([(1, 2, 1)])[0]] == 1.0
    assert one_hot.norm() == 1.0


def test_max_or_nan_keeps_nan_and_values():
    from kzcal.core import max_or_nan

    assert max([1e-15, float("nan")]) == 1e-15  # what the builtin does
    assert math.isnan(max_or_nan([1e-15, float("nan")]))
    assert math.isnan(max_or_nan([float("nan"), 1e-15]))
    values = [0.0, 3.5e-16, np.float64(1.25e-15), 7e-16]
    assert max_or_nan(values) == max(values)
