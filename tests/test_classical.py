import mpmath
import numpy as np
import pytest

from kzcal.classical import (
    classical_hamiltonians,
    gaudin_joint_spectrum,
    JointSpectrumItem,
    lax_matrix,
    qc_check,
    string_energy,
    string_spectrum,
)
from kzcal.core import ModelParams, StateVector, WeightVector, get_basis
from kzcal.errors import SingularConfigurationError
from kzcal.instances import random_instance, rng_for
from kzcal.quantum import calogero_energy

HAND = ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.1)
W11 = WeightVector((1, 1))


def test_lax_matrix_hand_values():
    params = ModelParams(n=2, N=2, x=(0.0, 1.0), g=(3.0, 4.0), hbar=1.0, kappa=0.5)
    L = lax_matrix((0.0, 1.0), (3.0, 4.0), params)
    # off-diagonal kernel is odd in i <-> j: kappa/(x_i - x_j)
    np.testing.assert_allclose(L.real, [[3.0, -0.5], [0.5, 4.0]], atol=1e-15)
    tr1, tr2 = classical_hamiltonians(L, 2)
    assert tr1.real == pytest.approx(7.0)
    # tr L^2 = sum p_i^2 - sum_{i != j} kappa^2/(x_i - x_j)^2 = 25 - 0.5
    assert tr2.real == pytest.approx(24.5)


def test_lax_kappa_zero_is_diagonal():
    params = HAND.replace(kappa=0.0)
    L = lax_matrix((0.0, 1.0), (3.0, 4.0), params)
    np.testing.assert_allclose(L, np.diag([3.0, 4.0]))
    assert classical_hamiltonians(L, 3)[2].real == pytest.approx(27 + 64)


def test_lax_trig_small_gamma_limit():
    params = HAND.replace(kind="trigonometric", gamma=1e-3)
    rat = lax_matrix((0.0, 1.0), (3.0, 4.0), HAND)
    trig = lax_matrix((0.0, 1.0), (3.0, 4.0), params)
    assert np.max(np.abs(trig - rat)) < 1e-6  # O(gamma^2)


def test_lax_collision_rejected():
    with pytest.raises(SingularConfigurationError):
        lax_matrix((0.0, 1e-12), (1.0, 2.0), HAND)


def test_trace_formula_random_instances():
    for k in range(6):
        rng = rng_for(31, "lax", k)
        n = int(rng.integers(2, 7))
        x = np.sort(rng.uniform(0, 1, n)) + 0.3 * np.arange(n)
        p = rng.standard_normal(n)
        params = ModelParams(
            n=n, N=2, x=tuple(x), g=(1.0, 2.0), hbar=1.0, kappa=float(rng.uniform(0.1, 1))
        )
        L = lax_matrix(x, p, params)
        tr2 = classical_hamiltonians(L, 2)[1]
        expected = np.sum(p**2) - sum(
            params.kappa**2 / (x[i] - x[j]) ** 2
            for i in range(n)
            for j in range(n)
            if i != j
        )
        assert tr2.real == pytest.approx(expected, rel=1e-12)
        assert abs(tr2.imag) < 1e-12


def test_string_spectrum_and_energy():
    params = ModelParams(
        n=2, N=1, x=(0.0, 1.0), g=(1.0,), hbar=1.0, kappa=0.5,
        kind="trigonometric", gamma=1.0, strict=False,
    )
    w = WeightVector((2,))
    np.testing.assert_allclose(string_spectrum(w, params), [0.5, 1.5])
    assert string_energy(w, params, 2) == pytest.approx(2.5)
    # collapsed strings in the rational kind
    rat = params.replace(kind="rational")
    assert string_energy(w, rat, 2) == pytest.approx(2.0)
    assert string_energy(w, rat, 3) == pytest.approx(2.0)


def test_string_energy_matches_trig_eigenvalue():
    for k in range(8):
        rng = rng_for(32, "strings", k)
        params, weight = random_instance(
            rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)),
            kind="trigonometric", require_multiplicity=False,
        )
        assert string_energy(weight, params, 2) == pytest.approx(
            calogero_energy(weight, params, 2), rel=1e-12
        )


def test_joint_spectrum_hand_instance():
    items = gaudin_joint_spectrum(HAND, W11, seed=42)
    assert len(items) == 2
    eigs = sorted(np.linalg.eigvalsh(np.array([[1.0, -0.1], [-0.1, 2.0]])))
    p1_values = sorted(float(it.p[0].real) for it in items)
    np.testing.assert_allclose(p1_values, eigs, atol=1e-12)
    for it in items:
        assert np.sum(it.p).real == pytest.approx(3.0, abs=1e-12)  # g_1 + g_2
        assert np.max(it.residuals) < 1e-8


def test_joint_spectrum_counts_and_sum_rule():
    for k in range(4):
        rng = rng_for(33, "joint", k)
        params, weight = random_instance(rng, 5, 2, dim_cap=20)
        items = gaudin_joint_spectrum(params, weight, seed=k)
        assert len(items) == weight.dimension()
        target = float(np.dot(weight.M, params.g))
        for it in items:
            assert np.sum(it.p).real == pytest.approx(target, abs=1e-11)
            assert abs(np.sum(it.p).imag) < 1e-11


def test_qc_rational_singletons():
    # all multiplicities 1: the Lax spectrum is exactly the twist set
    params = ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.1)
    items = gaudin_joint_spectrum(params, W11, seed=3)
    for item in items:
        report = qc_check(item, params, W11)
        assert report.ok
        np.testing.assert_allclose(report.lax_eigenvalues.real, [1.0, 2.0], atol=1e-10)
        assert report.max_trace_rel_error < 1e-12


def test_qc_trig_string_pair():
    params = ModelParams(
        n=2, N=1, x=(0.0, 1.0), g=(1.5,), hbar=1.0, kappa=0.3,
        kind="trigonometric", gamma=0.8, strict=False,
    )
    w = WeightVector((2,))
    items = gaudin_joint_spectrum(params, w, seed=5)
    assert len(items) == 1
    report = qc_check(items[0], params, w)
    assert report.ok
    step = 0.3 * 0.8
    np.testing.assert_allclose(
        report.lax_eigenvalues.real, [1.5 - step, 1.5 + step], atol=1e-9
    )


def test_qc_traces_match_level_set():
    rng = rng_for(34, "qc", 0)
    params, weight = random_instance(rng, 5, 3, dim_cap=60)
    items = gaudin_joint_spectrum(params, weight, seed=9)
    for item in items:
        report = qc_check(item, params, weight)
        assert report.max_mismatch < 1e-8
        assert report.max_trace_rel_error < 1e-8


def test_qc_mismatch_is_a_finding_not_an_exception():
    params = HAND
    items = gaudin_joint_spectrum(params, W11, seed=1)
    broken = JointSpectrumItem(
        p=items[0].p + 0.05,
        eigvec=items[0].eigvec,
        residuals=items[0].residuals,
        p_hp=items[0].p_hp + 0.05,
    )
    report = qc_check(broken, params, W11)
    assert not report.ok
    assert report.max_mismatch > 1e-3
    assert "VIOLATION" in report.summary()


def test_qc_traces_pin_the_characteristic_polynomial():
    # n = 6: tr L^1..tr L^4 leave det(lambda - L) open; the default k = 1..n fixes it
    x = (0.0, 1.3, -0.7, 2.2, 3.1, 4.4)
    rational = ModelParams(n=6, N=2, x=x, g=(1.0, 2.2), hbar=1.0, kappa=0.35)
    weight = WeightVector((3, 3))
    for params in (rational, rational.replace(kind="trigonometric", gamma=0.5)):
        for item in gaudin_joint_spectrum(params, weight, seed=4):
            report = qc_check(item, params, weight)
            assert len(report.traces) == 6
            for k, trace in enumerate(report.traces, start=1):
                energy = string_energy(weight, params, k)
                assert report.trace_targets[k - 1] == energy
                assert abs(trace - energy) < 1e-12 * abs(energy)


def _oracle_sectors():
    x = (0.0, 1.3, -0.7, 2.2, 3.1)
    three = ModelParams(n=5, N=3, x=x, g=(1.0, 1.9, 3.1), hbar=1.0, kappa=0.35)
    two = ModelParams(n=5, N=2, x=x, g=(1.0, 2.5), hbar=1.0, kappa=0.35)
    return [
        (three, WeightVector((2, 2, 1))),  # M_a = 1, 2
        (three, WeightVector((3, 1, 1))),  # M_a = 3
        (two, WeightVector((4, 1))),  # M_a = 4
        (three.replace(kind="trigonometric", gamma=0.6), WeightVector((2, 2, 1))),
        (two.replace(kind="trigonometric", gamma=0.6), WeightVector((3, 2))),
    ]


def _sorted_mismatch(eigs, target):
    eigs = eigs[np.argsort(eigs.real, kind="stable")]
    return float(np.max(np.abs(eigs - target)))


@pytest.mark.parametrize("sector", range(5))
def test_charpoly_lax_spectrum_matches_eig_oracle(sector, monkeypatch):
    from kzcal import classical

    params, weight = _oracle_sectors()[sector]
    oracle = classical._lax_eigenvalues_eig
    fallbacks = []
    monkeypatch.setattr(classical, "_lax_eigenvalues_eig", lambda *a: fallbacks.append(a) or oracle(*a))
    target = string_spectrum(weight, params)
    dps = max(40, 15 * max(weight.M) + 10)
    items = gaudin_joint_spectrum(params, weight, seed=11)
    for item in items[:12]:
        assert np.iscomplexobj(item.p_hp) == (params.kind == "trigonometric")
        ours = _sorted_mismatch(classical._lax_eigenvalues_hp(item.p_hp, params, weight), target)
        ref = _sorted_mismatch(oracle(item.p_hp, params, dps), target)
        assert abs(ours - ref) <= 1e-6 * ref + 1e-15
    assert not fallbacks


def test_complex_trig_momenta_reach_the_lax_matrix():
    # every momentum shifted by 0.05i shifts the Lax matrix, and so each of
    # its eigenvalues, by 0.05i; the oracle agrees
    from kzcal import classical

    params, weight = _oracle_sectors()[3]
    target = string_spectrum(weight, params)
    dps = max(40, 15 * max(weight.M) + 10)
    for item in gaudin_joint_spectrum(params, weight, seed=11)[:3]:
        p = item.p_hp + 0.05j
        ours = _sorted_mismatch(classical._lax_eigenvalues_hp(p, params, weight), target)
        ref = _sorted_mismatch(classical._lax_eigenvalues_eig(p, params, dps), target)
        assert abs(ours - ref) <= 1e-6 * ref
        assert ours == pytest.approx(0.05, rel=1e-6)


def test_shifted_momenta_take_the_eig_fallback(monkeypatch):
    from kzcal import classical

    params, weight = _oracle_sectors()[0]
    item = gaudin_joint_spectrum(params, weight, seed=11)[0]
    broken = JointSpectrumItem(
        p=item.p + 0.05, eigvec=item.eigvec, residuals=item.residuals, p_hp=item.p_hp + 0.05
    )
    oracle = classical._lax_eigenvalues_eig
    fallbacks = []
    monkeypatch.setattr(classical, "_lax_eigenvalues_eig", lambda *a: fallbacks.append(a) or oracle(*a))
    report = qc_check(broken, params, weight)
    assert len(fallbacks) == 1
    assert "VIOLATION" in report.summary()
    dps = max(40, 15 * max(weight.M) + 10)
    assert report.max_mismatch == _sorted_mismatch(oracle(broken.p_hp, params, dps), report.target_spectrum)
    assert report.max_mismatch == pytest.approx(0.05, rel=1e-6)


def _bits(v):
    """The exact binary value of an mpf or an mpc."""
    return v._mpc_ if hasattr(v, "_mpc_") else v._mpf_


def _row_bits(rows):
    return [[_bits(v) for v in row] for row in rows]


@pytest.mark.parametrize("sector", [0, 3], ids=["rational", "trigonometric"])
def test_cached_lax_rows_match_the_per_item_construction(sector):
    # the off-diagonal comes from the per-sector cache, at every dps and on
    # every call; the oracle makes each entry anew
    from kzcal import classical

    from oracles import lax_rows

    params, weight = _oracle_sectors()[sector]
    for item in gaudin_joint_spectrum(params, weight, seed=11)[:3]:
        for dps in (40, 55, 40):
            ctx = classical._mp_context(dps)
            ours = classical._lax_rows(ctx, item.p_hp, params)
            assert _row_bits(ours) == _row_bits(lax_rows(ctx, item.p_hp, params))
    assert classical._lax_offdiagonal(params, 40) is classical._lax_offdiagonal(params, 40)


def test_lax_entries_are_not_shared_across_kappa_x_or_dps():
    # params first seen here, so the base entries are made first; each
    # variant must get its own, equal to the per-item construction
    from kzcal import classical

    from oracles import lax_rows

    base = ModelParams(n=4, N=2, x=(0.0, 1.17, -0.73, 2.21), g=(1.0, 2.0), hbar=1.0, kappa=0.37)
    variants = [
        (base, 40),
        (base.replace(kappa=0.38), 40),
        (base.replace(x=(0.0, 1.17, -0.73, 2.31)), 40),
        (base, 55),
    ]
    p = (1.0, 2.0, 1.0, 2.0)
    seen = []
    for params, dps in variants:
        ctx = classical._mp_context(dps)
        rows = _row_bits(classical._lax_rows(ctx, p, params))
        assert rows == _row_bits(lax_rows(ctx, p, params))
        assert rows not in seen
        seen.append(rows)


SIMPLE_SECTORS = {
    "trigonometric (2,2,1)": _oracle_sectors()[3],
    "rational (1,1,1,1)": (
        ModelParams(n=4, N=4, x=(0.0, 1.3, -0.7, 2.2), g=(1.0, 1.9, 3.1, 4.2), hbar=1.0, kappa=0.35),
        WeightVector((1, 1, 1, 1)),
    ),
}


@pytest.mark.parametrize("sector", SIMPLE_SECTORS)
def test_simple_targets_match_eig_oracle(sector, monkeypatch):
    # every target is simple and takes mu = -q_0/q_1; the momenta are shifted
    # by a few 1e-9, so that mu stands far above the rounding of c + mu and a
    # wrong sign or step shows, while the truncation error mu^2 / gap does not
    from kzcal import classical

    params, weight = SIMPLE_SECTORS[sector]
    target = string_spectrum(weight, params)
    assert len(np.unique(target)) == params.n
    oracle = classical._lax_eigenvalues_eig
    fallbacks = []
    monkeypatch.setattr(classical, "_lax_eigenvalues_eig", lambda *a: fallbacks.append(a) or oracle(*a))
    shift = 1e-9 * np.arange(1, params.n + 1)
    for item in gaudin_joint_spectrum(params, weight, seed=11)[:6]:
        p = item.p_hp + shift
        ours = classical._lax_eigenvalues_hp(p, params, weight)
        ours = ours[np.argsort(ours.real, kind="stable")]
        ref = oracle(p, params, 40)
        ref = ref[np.argsort(ref.real, kind="stable")]
        assert np.max(np.abs(ours - ref)) <= 1e-14
        assert np.max(np.abs(ours - target)) > 1e-10
    assert not fallbacks


def test_simple_target_falls_back_where_the_newton_step_cannot_hold(monkeypatch):
    from kzcal import classical

    oracle = classical._lax_eigenvalues_eig
    fallbacks = []
    monkeypatch.setattr(classical, "_lax_eigenvalues_eig", lambda *a: fallbacks.append(a) or oracle(*a))
    # L = [[0.75, -0.25], [0.25, 1.25]]: det(lambda - L) = (lambda - 1)^2
    # exactly, so q_1 = 0 at the simple target 1
    params = ModelParams(n=2, N=2, x=(0.0, 1.0), g=(1.0, 2.0), hbar=1.0, kappa=0.25)
    p = np.array([0.75, 1.25])
    assert np.array_equal(classical._lax_eigenvalues_hp(p, params, W11), oracle(p, params, 40))
    assert len(fallbacks) == 1
    # every momentum 0.05 off: mu is about 0.05, beyond 1e-3 of the gap 1
    p = gaudin_joint_spectrum(HAND, W11, seed=1)[0].p_hp + 0.05
    assert np.array_equal(classical._lax_eigenvalues_hp(p, HAND, W11), oracle(p, HAND, 40))
    assert len(fallbacks) == 2


def test_qc_check_is_thread_and_precision_independent():
    # more threads than cores on one sector, while another thread keeps
    # changing the global mpmath precision
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import mpmath

    params, weight = _oracle_sectors()[1]
    items = gaudin_joint_spectrum(params, weight, seed=11)
    serial = [qc_check(item, params, weight).lax_eigenvalues for item in items]
    saved_interval, saved_dps = sys.getswitchinterval(), mpmath.mp.dps
    done = threading.Event()

    def flip_precision():
        while not done.is_set():
            mpmath.mp.dps = 5 if mpmath.mp.dps != 5 else 90

    flipper = threading.Thread(target=flip_precision)
    try:
        sys.setswitchinterval(1e-5)
        flipper.start()
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(qc_check, item, params, weight) for item in items]
            threaded = [f.result(timeout=60).lax_eigenvalues for f in futures]
    finally:
        done.set()
        flipper.join(timeout=10)
        sys.setswitchinterval(saved_interval)
        mpmath.mp.dps = saved_dps
    assert not flipper.is_alive()
    for a, b in zip(serial, threaded, strict=True):
        assert np.array_equal(a, b)


# level sets with Jordan blocks of size 7 (n = 9) and 6 (n = 12) in the Lax matrix
X9 = (-2.4, -1.7, -1.1, -0.5, 0.1, 0.7, 1.3, 1.9, 2.6)
X12 = (-3.9, -3.158, -2.455, -1.793, -1.138, -0.548, 0.186, 0.933, 1.649, 2.321, 2.973, 3.633)
LEVEL_SETS = {
    f"({a},{b})": (
        ModelParams(n=a + b, N=2, x=x, g=(1.1, 2.05), hbar=1.0, kappa=0.25),
        WeightVector((a, b)),
    )
    for a, b, x in [(7, 2, X9), (6, 6, X12)]
}


class _Captured(Exception):
    pass


def _refined_columns(params, weight, columns, monkeypatch):
    """60-digit momenta (n, len(columns)) of a few joint eigenvectors, by the package's refinement.

    Each column of the Newton correction D depends only on its own column of
    the residual, so the residual is taken on the chosen columns alone; the
    Rayleigh pass then runs on those columns and the rest of the sector is
    never refined.
    """
    from kzcal import classical

    residual, rayleigh = classical._dd_residual, classical._rayleigh_momenta

    def chosen_residual(terms, Q, lam):
        R = np.zeros_like(Q)
        R[:, columns] = residual(terms, Q[:, columns], lam[columns])
        return R

    def chosen_rayleigh(ctx, basis, g, pairs, Q, D):
        raise _Captured(rayleigh(ctx, basis, g, pairs, Q[:, columns], D[:, columns]))

    monkeypatch.setattr(classical, "JOINT_RETRIES", 1)
    monkeypatch.setattr(classical, "_dd_residual", chosen_residual)
    monkeypatch.setattr(classical, "_rayleigh_momenta", chosen_rayleigh)
    with pytest.raises(_Captured) as captured:
        gaudin_joint_spectrum(params, weight, seed=11)
    monkeypatch.undo()
    return captured.value.args[0]


@pytest.mark.parametrize("case", LEVEL_SETS)
def test_charpoly_matches_eig_oracle_on_defective_level_sets(case, monkeypatch):
    from kzcal import classical

    params, weight = LEVEL_SETS[case]
    columns = [0, 35] if case == "(7,2)" else [0]
    p_hp = _refined_columns(params, weight, columns, monkeypatch)
    oracle = classical._lax_eigenvalues_eig
    fallbacks = []
    monkeypatch.setattr(classical, "_lax_eigenvalues_eig", lambda *a: fallbacks.append(a) or oracle(*a))
    target = string_spectrum(weight, params)
    dps = 15 * max(weight.M) + 10
    for p in p_hp.T:
        ours = _sorted_mismatch(classical._lax_eigenvalues_hp(p, params, weight), target)
        ref = _sorted_mismatch(oracle(p, params, dps), target)
        # a split cluster; at (7,2) it exceeds 1e-8, as 60-digit momenta allow
        assert 1e-12 < ref < 1e-7
        assert abs(ours - ref) <= 1e-6 * ref + 1e-15
    assert not fallbacks


@pytest.mark.parametrize("sector", [*range(5), "(7,2)"])
def test_shifted_charpoly_matches_minors_oracle(sector):
    # the Taylor coefficients of the Berkowitz polynomial at every target
    # against the re-summed principal minors, on the level set where the
    # lower ones cancel
    from kzcal import classical

    from oracles import lax_minors, shifted_charpoly

    params, weight = LEVEL_SETS[sector] if sector == "(7,2)" else _oracle_sectors()[sector]
    dps = max(40, 15 * max(weight.M) + 10)
    ctx = classical._mp_context(dps)
    minors_ctx, minors = lax_minors(params, dps)
    centers, counts = np.unique(string_spectrum(weight, params), return_counts=True)
    for item in gaudin_joint_spectrum(params, weight, seed=11)[:4]:
        poly = classical._charpoly(ctx, classical._lax_rows(ctx, item.p_hp, params))
        assert len(poly) == params.n + 1 and poly[0] == 1
        p = [minors_ctx.convert(v) for v in item.p_hp]
        for c, m in zip(centers, counts):
            ours = classical._taylor(poly, ctx.mpf(c), int(m))
            ref = shifted_charpoly(minors, [minors_ctx.mpf(c) - v for v in p], int(m))
            for a, b in zip(ours, ref, strict=True):
                assert abs(a - b) <= 10.0 ** (5 - dps)
            if sector == "(7,2)":  # q_0 cancels to 1e-58..1e-63, still 35 digits above the bound
                assert abs(ref[0]) > 10.0 ** (40 - dps)


def test_partial_spectrum_large_sector(monkeypatch):
    # above the dense limit the extraction is partial but still verified
    from kzcal import classical

    monkeypatch.setattr(classical, "PARTIAL_EIGENPAIRS", 4)
    n = 14
    x = tuple(np.linspace(0.0, 6.5, n))
    params = ModelParams(n=n, N=2, x=x, g=(1.0, 2.0), hbar=1.0, kappa=0.3)
    weight = WeightVector((7, 7))
    assert weight.dimension() == 3432
    items = gaudin_joint_spectrum(params, weight, seed=2)
    assert 0 < len(items) <= 4
    target = float(np.dot(weight.M, params.g))
    for it in items:
        assert np.max(it.residuals) < 1e-8
        assert np.sum(it.p).real == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_partial_items_take_the_extended_precision_lax_check(kind, monkeypatch):
    # ARPACK items carry p_hp = p, so qc_check reads them through the
    # characteristic polynomial like every dense item
    from kzcal import classical

    params = _oracle_instance(kind).replace(N=4, g=(1.0, 1.9, 3.1, 4.2))
    weight = WeightVector((1, 1, 1, 1))
    monkeypatch.setattr(classical, "DENSE_DIM_LIMIT", 2)
    hp = classical._lax_eigenvalues_hp
    calls = []
    monkeypatch.setattr(classical, "_lax_eigenvalues_hp", lambda *a: calls.append(a) or hp(*a))
    items = gaudin_joint_spectrum(params, weight, seed=3)
    assert 0 < len(items) <= classical.PARTIAL_EIGENPAIRS < weight.dimension()
    for item in items:
        assert item.p_hp.dtype == np.complex128 and np.array_equal(item.p_hp, item.p)
        report = qc_check(item, params, weight)
        assert report.ok
    assert len(calls) == len(items)


def test_arpack_failure_maps_to_degenerate_spectrum(monkeypatch):
    import scipy.sparse.linalg

    from kzcal import classical
    from kzcal.errors import DegenerateSpectrumError

    monkeypatch.setattr(classical, "PARTIAL_EIGENPAIRS", 4)

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("synthetic", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    n = 14
    params = ModelParams(n=n, N=2, x=tuple(np.linspace(0.0, 6.5, n)), g=(1.0, 2.0), hbar=1.0, kappa=0.3)
    weight = WeightVector((7, 7))  # above the dense limit
    with pytest.raises(DegenerateSpectrumError, match="partial eigensolve"):
        gaudin_joint_spectrum(params, weight, seed=2)


# -- extended-precision coefficients against the Kronecker oracle ---------------


def _oracle_instance(kind):
    params = ModelParams(
        n=4, N=3, x=(0.0, 1.3, -0.7, 2.2), g=(1.0, 1.9, 3.1), hbar=1.0, kappa=0.35
    )
    return params if kind == "rational" else params.replace(kind="trigonometric", gamma=0.6)


@pytest.mark.parametrize("kind", ["rational", "trigonometric"])
def test_mpmath_terms_match_kron_oracle(kind):
    # the mpf twists and P_ij coefficients of the 60-digit refinement against
    # the Kronecker oracle with its T_ij part taken out
    from kzcal.classical import _mp_coefficients, _mp_context

    from oracles import gaudin_full, permutation_full, restrict, t_full

    params = _oracle_instance(kind)
    n, N = params.n, params.N
    weight = WeightVector((2, 1, 1))
    letters = get_basis(weight).states - 1
    ctx = _mp_context(40)
    g, pairs = _mp_coefficients(ctx, params)
    assert all(isinstance(v, ctx.mpf) for v in [*g, *pairs.values()])
    assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i in range(1, n + 1):
        ours = np.diag([float(g[a]) for a in letters[:, i - 1]])
        full = gaudin_full(params, i)
        for j in range(1, n + 1):
            if j != i:
                coeff = pairs[i - 1, j - 1] if i < j else -pairs[j - 1, i - 1]
                ours = ours + float(coeff) * restrict(permutation_full(N, n, i, j), weight)
                if kind == "trigonometric":
                    full = full - params.kappa * params.gamma * t_full(N, n, i, j)
        np.testing.assert_allclose(ours, restrict(full, weight), rtol=0, atol=1e-14)


def test_dd_residual_resolves_the_cancellation():
    # R = A Q - Q diag(lam) at the float64 eigenpairs of A is ~1e-16 against
    # entries ~1; the double-double evaluation must match exact arithmetic
    from kzcal.classical import _dd, _dd_residual, _mp_context

    ctx = _mp_context(60)
    dim = 8
    swap = np.array([3, 1, 2, 0, 4, 6, 5, 7])  # a symmetric row permutation
    diag = [ctx.mpf(float(v)) / 3 for v in np.random.default_rng(5).standard_normal(dim)]
    coupling = ctx.mpf(1) / 7
    split = np.array([_dd(d) for d in diag])
    terms = [(split[:, :1], split[:, 1:], None), (*map(np.array, _dd(coupling)), swap)]
    dense = np.diag([float(d) for d in diag])
    dense[np.arange(dim), swap] += float(coupling)
    lam, Q = np.linalg.eigh(dense)
    R = _dd_residual(terms, Q, lam)
    Qmp = [[ctx.mpf(v) for v in row] for row in Q.tolist()]
    for k in range(dim):
        for j in range(dim):
            exact = (diag[k] - lam[j]) * Qmp[k][j] + coupling * Qmp[swap[k]][j]
            assert abs(ctx.mpf(R[k, j]) - exact) <= 1e-31 + 2**-52 * abs(exact)
    assert np.max(np.abs(R)) > 1e-18  # the check is not vacuous


@pytest.mark.parametrize("sector", range(3))
def test_newton_momenta_match_invit_oracle(sector):
    # M_a = 2, 3, 4: the one-step mixed-precision refinement against dense
    # 60-digit inverse iteration (three columns of the dim-30 sector, all of
    # the others)
    from oracles import refine_momenta_invit

    params, weight = _oracle_sectors()[sector]
    assert max(weight.M) == sector + 2
    items = gaudin_joint_spectrum(params, weight, seed=11)
    vecs = np.stack([item.eigvec.amplitudes for item in items], axis=1)
    columns = sorted({0, len(items) // 2, len(items) - 1}) if len(items) > 20 else range(len(items))
    reference = refine_momenta_invit(params, weight, vecs, columns)
    for col, ref in zip(columns, reference, strict=True):
        for ours, theirs in zip(items[col].p_hp, ref, strict=True):
            assert abs(ours - theirs) <= 1e-45 * abs(theirs)


RAYLEIGH_SECTORS = [
    (ModelParams(n=6, N=len(g), x=(0.0, 1.3, -0.7, 2.2, 3.1, 4.4), g=g, hbar=1.0, kappa=0.35), M)
    for g, M in [((1.0, 1.9, 3.1), (2, 2, 2)), ((1.0, 1.9, 3.1), (4, 1, 1)), ((1.0, 2.2), (3, 3))]
]


@pytest.mark.parametrize("sector", range(3), ids=["(2,2,2)", "(4,1,1)", "(3,3)"])
def test_rayleigh_pass_matches_per_column_oracle(sector, monkeypatch):
    from kzcal import classical

    from oracles import rayleigh_momenta_per_column

    params, M = RAYLEIGH_SECTORS[sector]
    weight = WeightVector(M)
    seen = []
    rayleigh = classical._rayleigh_momenta
    monkeypatch.setattr(classical, "_rayleigh_momenta", lambda *a: seen.append(a) or rayleigh(*a))
    items = gaudin_joint_spectrum(params, weight, seed=11)
    reference = rayleigh_momenta_per_column(*seen[0])
    assert reference.shape == (params.n, len(items))
    for k, item in enumerate(items):
        for ours, theirs in zip(item.p_hp, reference[:, k], strict=True):
            assert abs(ours - theirs) <= 1e-50 * abs(theirs)


@pytest.mark.parametrize("sector", [1, 2], ids=["(4,1,1)", "(3,3)"])
def test_dd_residual_matches_per_term_split_oracle(sector, monkeypatch):
    # splitting Q once and permuting both halves is the split of Q[perm],
    # so the residual is bitwise the one that splits every block anew
    from kzcal import classical

    from oracles import dd_residual_per_term_split

    params, M = RAYLEIGH_SECTORS[sector]
    seen = []
    residual = classical._dd_residual
    monkeypatch.setattr(classical, "_dd_residual", lambda *a: seen.append(a) or residual(*a))
    gaudin_joint_spectrum(params, WeightVector(M), seed=11)
    terms, Q, lam = seen[0]
    assert any(perm is not None for _, _, perm in terms)
    got, want = residual(terms, Q, lam), dd_residual_per_term_split(terms, Q, lam)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.max(np.abs(got)) > 0.0


def _exact_column_sums(t, W):
    """The exact sums (t @ W.T) of doubles, as mpf at 1400 bits."""
    ctx = mpmath.MPContext()
    ctx.prec = 1400
    return [[ctx.fsum(float(v) for v, w in zip(row, weights) if w) for weights in W] for row in t]


def _spread_columns():
    """Rows of 600 doubles: plain; one-signed; over 30 decades; over 30 decades summing to ~1e-40."""
    rng = np.random.default_rng(5)
    plain = rng.standard_normal(600)
    positive = 1 + rng.random(600)
    spread = rng.standard_normal(600) * 10.0 ** rng.uniform(-30, 0, 600)
    a = spread[:290]
    cancel = rng.permutation(np.concatenate([a, -a, 1e-40 * rng.standard_normal(20)]))
    return np.stack([plain, positive, spread, cancel])


def test_extraction_rounds_sum_exactly():
    # every entry but the last is the exact sum (BLAS included) of what one
    # round extracts, q = (sigma + rest) - sigma; the entries add up to the
    # exact sums to 2^-SUM_BITS of the largest term
    from kzcal.classical import SUM_BITS, _exact_sums

    t = _spread_columns()
    # three interleaved groups and the whole row
    W = np.vstack([np.arange(600)[None] % 3 == np.arange(3)[:, None], np.ones(600)]).astype(float)
    expansion = _exact_sums(t, W)
    ctx = mpmath.MPContext()
    ctx.prec = 1400
    gain = 51 - t.shape[1].bit_length()
    sigma = np.ldexp(1.0, np.frexp(2 * 600 * np.max(np.abs(t), axis=1, keepdims=True))[1])
    rest = t
    for entry in expansion[:-1]:
        q = (sigma + rest) - sigma
        for row, q_row, new_row in zip(rest.tolist(), q.tolist(), (rest - q).tolist()):
            assert [ctx.mpf(a) for a in row] == [ctx.mpf(b) + c for b, c in zip(q_row, new_row)]
        assert [[ctx.mpf(v) for v in row] for row in entry.tolist()] == _exact_column_sums(q, W)
        rest, sigma = rest - q, np.ldexp(sigma, -gain)
    assert len(expansion) - 1 == -(-SUM_BITS // gain)
    exact = _exact_column_sums(t, W)
    for col in range(len(t)):
        bound = ctx.ldexp(float(np.max(np.abs(t[col]))), -SUM_BITS)
        for g in range(len(W)):
            ours = ctx.fsum(float(v) for v in expansion[:, col, g])
            assert abs(ours - exact[col][g]) <= bound
    assert 0 < abs(exact[3][3]) < 1e-38 * np.sum(np.abs(t[3]))  # the cancellation is deep


def test_mp_sums_round_the_exact_sum_once():
    from kzcal.classical import _mp_context, _mp_sums

    ctx = _mp_context(60)
    parts = _spread_columns().T  # 600 parts per sum
    ours = _mp_sums(ctx, parts)
    for k in range(parts.shape[1]):
        assert ours[k] == ctx.fsum(float(v) for v in parts[:, k])
    assert ctx.isnan(_mp_sums(ctx, np.array([[1.0], [np.nan]]))[0])


def test_trace_and_momentum_errors_at_a_vanishing_power_sum():
    # g_1 + 2 g_2 = 0: tr L and the total momentum both target 0
    from kzcal.suites import _qc_residual

    params = ModelParams(n=3, N=2, x=(0.0, 1.1, 2.7), g=(-2.2, 1.1), hbar=1.0, kappa=0.3)
    weight = WeightVector((1, 2))
    for item in gaudin_joint_spectrum(params, weight, seed=1):
        report = qc_check(item, params, weight)
        assert report.trace_targets[0] == 0.0
        assert report.ok
        assert report.max_trace_rel_error < 1e-14
    assert _qc_residual(params, weight, rng_for(1, "qc", 0)) < 1e-14
