import numpy as np
import pytest

from kzcal.core import ModelParams, StateVector, WeightVector, get_basis, omega_pairing
from kzcal.errors import InvalidSitesError, UnsupportedOrderError
from kzcal.operators import (
    gaudin_derivative,
    gaudin_hamiltonian,
    TermOperator,
    permutation_operator,
    t_operator,
    twist_operator,
    weight_operator,
)

from oracles import csr_rows, csr_rows_masked, gaudin_full, permutation_full, restrict, t_full, twist_full


def test_sparsetools_kernels_are_pinned():
    # the row kernel calls scipy's private CSR kernels with int32 indices and
    # lets them add into the output it has filled with the diagonal part
    from scipy.sparse import _sparsetools

    from kzcal import operators

    assert operators._sparsetools is _sparsetools
    indptr = np.array([0, 2, 3], dtype=np.int32)
    indices = np.array([1, 0, 1], dtype=np.int32)
    data = np.array([2.0, 3.0, 4.0])
    y = np.array([1.0, -1.0])
    _sparsetools.csr_matvec(2, 2, indptr, indices, data, np.array([10.0, 100.0]), y)
    assert y.tolist() == [1.0 + 200.0 + 30.0, -1.0 + 400.0]
    Y = np.array([[1.0, 0.5], [-1.0, 0.25]])
    X = np.array([[10.0, 1.0], [100.0, 2.0]])
    _sparsetools.csr_matvecs(2, 2, 2, indptr, indices, data, X.ravel(), Y.ravel())
    assert Y.tolist() == [[231.0, 0.5 + 4.0 + 3.0], [399.0, 0.25 + 8.0]]


HAND = ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.1)
W11 = WeightVector((1, 1))


def rational_instance(n=4, N=2, kappa=0.3, hbar=1.0):
    x = tuple(0.0 + 1.1 * k + 0.05 * k * k for k in range(n))
    g = tuple(1.0 + 0.9 * a for a in range(N))
    return ModelParams(n=n, N=N, x=x, g=g, hbar=hbar, kappa=kappa)


def trig_instance(n=4, N=2, kappa=0.3, gamma=0.7, hbar=1.0):
    return rational_instance(n, N, kappa, hbar).replace(kind="trigonometric", gamma=gamma)


def P(i, j, state):
    return permutation_operator(i, j, state.weight).apply(state)


def T(i, j, state):
    return t_operator(i, j, state.weight).apply(state)


def twist(i, state, params):
    return twist_operator(i, params, state.weight).apply(state)


# -- hand examples -------------------------------------------------------------


def test_gaudin_hand_matrices():
    H1 = gaudin_hamiltonian(1, HAND, W11).materialize().toarray()
    H2 = gaudin_hamiltonian(2, HAND, W11).materialize().toarray()
    np.testing.assert_allclose(H1, [[1.0, -0.1], [-0.1, 2.0]], atol=1e-15)
    np.testing.assert_allclose(H2, [[2.0, 0.1], [0.1, 1.0]], atol=1e-15)
    np.testing.assert_allclose(H1 + H2, 3.0 * np.eye(2), atol=1e-15)


def test_gaudin_derivative_hand():
    d = gaudin_derivative(1, 1, 1, HAND, W11).materialize().toarray()
    np.testing.assert_allclose(d, [[0.0, -0.1], [-0.1, 0.0]], atol=1e-16)


def test_permutation_swap_and_involution():
    state = StateVector(W11, np.array([1.0, 0.0]))
    swapped = P(1, 2, state)
    np.testing.assert_allclose(swapped.amplitudes, [0.0, 1.0])
    back = P(1, 2, swapped)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes)


def test_t_action_cases():
    # letters (1,2): raise, (2,1): lower with sign, equal letters annihilate
    st12 = StateVector.basis_state(W11, (1, 2))
    np.testing.assert_array_equal(T(1, 2, st12).amplitudes, [0.0, 1.0])
    st21 = StateVector.basis_state(W11, (2, 1))
    np.testing.assert_array_equal(T(1, 2, st21).amplitudes, [-1.0, 0.0])
    w2 = WeightVector((2,))
    st11 = StateVector.basis_state(w2, (1, 1))
    np.testing.assert_array_equal(T(1, 2, st11).amplitudes, [0.0])


def test_t_antisymmetry():
    rng = np.random.default_rng(0)
    w = WeightVector((2, 2))
    state = StateVector.random(w, rng)
    a = T(1, 3, state).amplitudes
    b = T(3, 1, state).amplitudes
    np.testing.assert_allclose(a, -b, atol=1e-15)


def test_t_square_case_analysis():
    w = WeightVector((2, 1))
    basis = get_basis(w)
    for k, J in enumerate(basis.states):
        state = StateVector.basis_state(w, tuple(J))
        out = T(1, 3, T(1, 3, state)).amplitudes
        expected = np.zeros(basis.dim)
        if J[0] != J[2]:
            expected[k] = -1.0
        np.testing.assert_array_equal(out, expected)


def test_twist_examples():
    state = StateVector.basis_state(W11, (1, 2))
    np.testing.assert_allclose(twist(1, state, HAND).amplitudes, state.amplitudes * 1.0)
    np.testing.assert_allclose(twist(2, state, HAND).amplitudes, state.amplitudes * 2.0)


def test_total_twist_counts_letters():
    params = rational_instance(n=5, N=3)
    w = WeightVector((2, 2, 1))
    expected = 2 * params.g[0] + 2 * params.g[1] + 1 * params.g[2]
    for J in [(1, 1, 2, 2, 3), (3, 2, 1, 2, 1)]:
        state = StateVector.basis_state(w, J)
        total = sum(
            twist(i, state, params).amplitudes for i in range(1, 6)
        )
        np.testing.assert_allclose(total, expected * state.amplitudes, atol=1e-14)


def test_twist_permutation_intertwining():
    # g^(i) P_ij = P_ij g^(j)
    rng = np.random.default_rng(1)
    params = rational_instance(n=4, N=2)
    w = WeightVector((2, 2))
    state = StateVector.random(w, rng)
    for i, j in [(1, 2), (2, 4), (1, 3)]:
        lhs = twist(i, P(i, j, state), params).amplitudes
        rhs = P(i, j, twist(j, state, params)).amplitudes
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_twist_t_mixed_identity():
    # (g^(i) - g^(j)) T_ij + T_ij (g^(i) - g^(j)) = 0
    rng = np.random.default_rng(2)
    params = rational_instance(n=4, N=3)
    w = WeightVector((2, 1, 1))
    state = StateVector.random(w, rng)
    for i, j in [(1, 2), (3, 4), (2, 3)]:
        def gdiff(s):
            a = twist(i, s, params).amplitudes - twist(j, s, params).amplitudes
            return StateVector(w, a)

        lhs = gdiff(T(i, j, state)).amplitudes + T(i, j, gdiff(state)).amplitudes
        np.testing.assert_allclose(lhs, 0.0, atol=1e-13)


def test_omega_absorbs_permutation():
    rng = np.random.default_rng(4)
    w = WeightVector((2, 2))
    state = StateVector.random(w, rng)
    for i, j in [(1, 2), (2, 3), (1, 4)]:
        assert omega_pairing(P(i, j, state)) == pytest.approx(
            omega_pairing(state), abs=1e-14
        )


# -- weight operators ----------------------------------------------------------


def test_weight_operator_scalar_on_sector():
    w = WeightVector((2, 2, 1))
    for a, expected in [(1, 2.0), (2, 2.0), (3, 1.0)]:
        op = weight_operator(a, w)
        v = np.linspace(1, 2, w.dimension())
        np.testing.assert_allclose(op.matvec(v), expected * v)


def test_weight_operators_sum_to_n():
    w = WeightVector((2, 2, 1))
    v = np.ones(w.dimension())
    total = sum(weight_operator(a, w).matvec(v) for a in (1, 2, 3))
    np.testing.assert_allclose(total, 5.0 * v)


@pytest.mark.parametrize("make", [rational_instance, trig_instance])
def test_hamiltonians_sum_to_twist_weight(make):
    params = make(n=5, N=3)
    w = WeightVector((2, 2, 1))
    rng = np.random.default_rng(5)
    v = StateVector.random(w, rng).amplitudes
    total = sum(
        gaudin_hamiltonian(i, params, w).matvec(v) for i in range(1, 6)
    )
    expected = sum(m * g for m, g in zip(w.M, params.g))
    np.testing.assert_allclose(total, expected * v, atol=1e-12)


# -- dense Kronecker oracle ----------------------------------------------------


@pytest.mark.parametrize("n,N,M", [(3, 2, (2, 1)), (4, 2, (2, 2)), (3, 3, (1, 1, 1))])
def test_permutation_matches_kron_oracle(n, N, M):
    w = WeightVector(M)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ours = permutation_operator(i, j, w).materialize().toarray()
            full = restrict(permutation_full(N, n, i, j), w)
            np.testing.assert_array_equal(ours, full)


@pytest.mark.parametrize("n,N,M", [(3, 2, (2, 1)), (4, 2, (2, 2)), (3, 3, (1, 1, 1))])
def test_t_matches_kron_oracle(n, N, M):
    w = WeightVector(M)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            ours = t_operator(i, j, w).materialize().toarray()
            full = restrict(t_full(N, n, i, j), w)
            np.testing.assert_array_equal(ours, full)


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
@pytest.mark.parametrize("n,N,M", [(3, 2, (2, 1)), (4, 3, (2, 1, 1))])
def test_gaudin_matches_kron_oracle(kind, n, N, M):
    params = rational_instance(n, N) if kind == "rational" else trig_instance(n, N)
    w = WeightVector(M)
    for i in range(1, n + 1):
        ours = gaudin_hamiltonian(i, params, w).materialize().toarray()
        full = restrict(gaudin_full(params, i), w)
        np.testing.assert_allclose(ours, full, atol=1e-14)


def test_twist_matches_kron_oracle():
    params = rational_instance(3, 2)
    w = WeightVector((2, 1))
    for i in (1, 2, 3):
        ours = twist_operator(i, params, w).materialize().toarray()
        full = restrict(twist_full(2, 3, i, params.g), w)
        np.testing.assert_array_equal(ours, full)


# -- commuting family ----------------------------------------------------------


@pytest.mark.parametrize("make", [rational_instance, trig_instance])
def test_hamiltonians_commute(make):
    params = make(n=5, N=3, kappa=0.45)
    w = WeightVector((2, 2, 1))
    rng = np.random.default_rng(6)
    v = StateVector.random(w, rng).amplitudes
    ops = [gaudin_hamiltonian(i, params, w) for i in range(1, 6)]
    for i in range(5):
        for j in range(i + 1, 5):
            comm = ops[i].matvec(ops[j].matvec(v)) - ops[j].matvec(ops[i].matvec(v))
            assert np.linalg.norm(comm) < 1e-12


@pytest.mark.parametrize("make", [rational_instance, trig_instance])
def test_hamiltonians_commute_with_weights(make):
    params = make(n=4, N=2)
    w = WeightVector((2, 2))
    rng = np.random.default_rng(7)
    v = StateVector.random(w, rng).amplitudes
    for i in range(1, 5):
        H = gaudin_hamiltonian(i, params, w)
        for a in (1, 2):
            Ma = weight_operator(a, w)
            comm = H.matvec(Ma.matvec(v)) - Ma.matvec(H.matvec(v))
            np.testing.assert_allclose(comm, 0.0, atol=1e-12)


# -- derivatives ---------------------------------------------------------------


@pytest.mark.parametrize("make", [rational_instance, trig_instance])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_matches_finite_difference(make, order):
    params = make(n=4, N=2, kappa=0.35)
    w = WeightVector((2, 2))
    # the second difference divides by h^2, so h = 1e-5 would sit at the
    # float64 roundoff floor; 3e-4 balances roundoff against truncation
    h = 1e-5 if order == 1 else 3e-4
    for i in (1, 3):
        for j in (1, 2, 3):
            analytic = gaudin_derivative(i, j, order, params, w).materialize().toarray()
            x = np.asarray(params.x)

            def ham(xs):
                return gaudin_hamiltonian(i, params.replace(x=tuple(xs)), w).materialize().toarray()

            xp, xm = x.copy(), x.copy()
            xp[j - 1] += h
            xm[j - 1] -= h
            if order == 1:
                fd = (ham(xp) - ham(xm)) / (2 * h)
            else:
                fd = (ham(xp) - 2 * ham(x) + ham(xm)) / h**2
            scale = max(np.max(np.abs(analytic)), 1e-3)
            assert np.max(np.abs(fd - analytic)) / scale < 1e-6


@pytest.mark.parametrize("make", [rational_instance, trig_instance])
def test_derivative_symmetry(make):
    # d H_i / d x_j = d H_j / d x_i, the zero-curvature symmetry
    params = make(n=4, N=2)
    w = WeightVector((2, 2))
    for i in (1, 2):
        for j in (3, 4):
            a = gaudin_derivative(i, j, 1, params, w).materialize().toarray()
            b = gaudin_derivative(j, i, 1, params, w).materialize().toarray()
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_unsupported_derivative_order():
    with pytest.raises(UnsupportedOrderError):
        gaudin_derivative(1, 1, 3, HAND, W11)


def test_invalid_sites():
    with pytest.raises(InvalidSitesError):
        permutation_operator(1, 1, W11)
    with pytest.raises(InvalidSitesError):
        t_operator(0, 2, W11)


# -- operator plumbing ---------------------------------------------------------


def test_signed_swap_signs_must_be_read_from_the_table():
    # the row kernel and materialize read sign(r - perm[r]) from the table,
    # so a term with another sign is refused; the basis's own tables pass
    # by identity, an equal copy by value
    w = WeightVector((2, 2, 1))
    perm, sign = get_basis(w).swap_table(1, 3), get_basis(w).swap_sign(1, 3)
    coeff = 0.7
    copied = TermOperator(w, [("tswap", perm.copy(), sign.copy(), coeff)])
    full = coeff * restrict(t_full(w.N, w.n, 2, 4), w)
    np.testing.assert_array_equal(copied.materialize().toarray(), full)
    np.testing.assert_array_equal(copied.matvec(np.eye(copied.dim)), full)
    for bad in (-sign, np.ones_like(sign), np.abs(sign)):
        with pytest.raises(ValueError):
            TermOperator(w, [("swap", perm, 1.0), ("tswap", perm, bad, coeff)])
    op = t_operator(2, 4, w)
    with pytest.raises(ValueError):
        op.terms = [(tag, p, -s, c) for tag, p, s, c in op.terms]


def test_linearity_and_materialize_agree():
    params = trig_instance(n=4, N=3)
    w = WeightVector((2, 1, 1))
    op = gaudin_hamiltonian(2, params, w)
    mat = op.materialize()
    rng = np.random.default_rng(8)
    for _ in range(4):
        u = StateVector.random(w, rng).amplitudes
        v = StateVector.random(w, rng).amplitudes
        a, b = rng.standard_normal(2)
        np.testing.assert_allclose(
            op.matvec(a * u + b * v), a * op.matvec(u) + b * op.matvec(v), atol=1e-13
        )
        np.testing.assert_allclose(op.matvec(u), mat @ u, atol=1e-13)


@pytest.mark.parametrize("make", [rational_instance, trig_instance])
@pytest.mark.parametrize("M", [(2, 1, 1), (2, 2, 1), (3, 2)])
def test_materialize_matches_coo_oracle(make, M):
    # the row kernel's entries plus sum_duplicates give the COO assembly's
    # CSR bitwise: index dtype, indptr, indices, data and nnz
    from oracles import materialize_coo

    w = WeightVector(M)
    params = make(n=w.n, N=w.N)
    ops = [gaudin_hamiltonian(i, params, w) for i in range(1, w.n + 1)]
    ops += [gaudin_derivative(1, j, order, params, w) for j in (1, 2) for order in (1, 2)]
    ops += [t_operator(1, 2, w), t_operator(3, 1, w), permutation_operator(2, 3, w)]
    ops += [twist_operator(2, params, w), weight_operator(1, w)]
    basis = get_basis(w)
    tables = [basis.site_table(i).copy() for i in range(w.n)]
    for op in ops:
        got, want = op.materialize(), materialize_coo(op)
        assert got.nnz == want.nnz
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # the matrices own their index arrays: sum_duplicates sorts them in place
    for i, table in enumerate(tables):
        np.testing.assert_array_equal(basis.site_table(i), table)


def test_rmatvec_is_transpose():
    params = trig_instance(n=4, N=2)
    w = WeightVector((2, 2))
    op = gaudin_hamiltonian(1, params, w)
    dense = op.materialize().toarray()
    rng = np.random.default_rng(9)
    v = rng.standard_normal(w.dimension())
    np.testing.assert_allclose(op.rmatvec(v), dense.T @ v, atol=1e-13)


def test_trig_to_rational_limit():
    params = rational_instance(n=4, N=2, kappa=0.4)
    w = WeightVector((2, 2))
    rat = [gaudin_hamiltonian(i, params, w).materialize().toarray() for i in range(1, 5)]
    gamma = 1e-4
    trig = params.replace(kind="trigonometric", gamma=gamma)
    worst = 0.0
    for i in range(1, 5):
        diff = gaudin_hamiltonian(i, trig, w).materialize().toarray() - rat[i - 1]
        worst = max(worst, np.max(np.abs(diff)))
    assert worst < 10 * gamma * params.kappa * params.n
    assert worst > 0.0


@pytest.mark.parametrize(
    "case", ["rational", "rational-padded", "trigonometric", "trigonometric-all-signed", "single-site"]
)
def test_csr_rows_match_the_masked_builder_exactly(case):
    # the lean build (no mask without a signed swap or a short row, swap
    # coefficients in one broadcast) gives the same CSR arrays; the
    # (1, 1, 1) sector has no zero sign, so its T_ij rows are all full.
    # One operator's rows, duplicates summed, are what materialize builds
    # from the row kernel
    if case == "single-site":
        params = ModelParams(n=1, N=1, x=(0.0,), g=(1.5,), hbar=1.0, kappa=0.3)
        weight = WeightVector((1,))
    elif case == "trigonometric-all-signed":
        params, weight = trig_instance(n=3, N=3), WeightVector((1, 1, 1))
    elif case == "trigonometric":
        params, weight = trig_instance(n=5), WeightVector((3, 2))
    else:
        params, weight = rational_instance(n=5), WeightVector((3, 2))
    n = params.n
    ops = [gaudin_hamiltonian(i, params, weight) for i in range(1, n + 1)]
    if case in ("rational-padded", "single-site"):
        ops += [gaudin_derivative(i, i, 1, params, weight) for i in range(1, n + 1)]
    dim = ops[0].dim
    for lo, hi in ((0, dim), (dim // 3, dim), (1, max(2, dim // 2))):
        hi = min(hi, dim)
        got, want = csr_rows(ops, lo, hi), csr_rows_masked(ops, lo, hi)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for op in ops:
        got, want = op.materialize(), csr_rows([op], 0, dim)
        want.sum_duplicates()
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
