"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Instance sets are seeded and fixed; every tolerance is
pinned here, none are calibrated at run time.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from kzcal.classical import gaudin_joint_spectrum, qc_check, string_energy
from kzcal.core import ModelParams, StateVector, WeightVector
from kzcal.identities import (
    verify_omega_weight_identity,
    verify_rational_scalar_identities,
    verify_t_case_tables,
    verify_trig_identities,
    verify_twist_sum_identities,
)
from kzcal.instances import random_instance, rng_for
from kzcal.kz import KzConnection, PathSpec, integrate_path
from kzcal.operators import gaudin_hamiltonian
from kzcal.quantum import (
    calogero_energy,
    h2_covector_residual,
    h3_covector_residual,
    momentum_covector_residual,
    pde_residual_on_solution,
)

MASTER_SEED = 20250810


def report(num: int, description: str, value: float, tol: float, elapsed: float) -> None:
    status = "PASS" if value < tol else "FAIL"
    print(
        f"ACCEPTANCE {num:>2} {status}  {description}: "
        f"max {value:.3e} < {tol:.1e}  [{elapsed:.1f}s]"
    )
    assert value < tol, f"criterion {num}: {value:.3e} >= {tol:.1e}"


def _instances(kind: str, count: int, n_max: int = 6, label: str = "setA"):
    out = []
    for k in range(count):
        rng = rng_for(MASTER_SEED, label, kind, k)
        n = int(rng.integers(2, n_max + 1))
        N = int(rng.integers(2, 4))
        out.append(random_instance(rng, n, N, kind=kind, dim_cap=400))
    return out


@pytest.fixture(scope="module")
def set_a():
    """50 rational + 50 trigonometric instances, n <= 6, N <= 3, dim <= 400."""
    return _instances("rational", 50) + _instances("trigonometric", 50)


def test_criterion_1_commutativity(set_a):
    started = time.perf_counter()
    worst = 0.0
    for idx, (params, weight) in enumerate(set_a):
        rng = rng_for(MASTER_SEED, "comm", idx)
        v = StateVector.random(weight, rng).amplitudes
        ops = [gaudin_hamiltonian(i, params, weight) for i in range(1, params.n + 1)]
        for i in range(params.n):
            for j in range(i + 1, params.n):
                comm = ops[i].matvec(ops[j].matvec(v)) - ops[j].matvec(ops[i].matvec(v))
                worst = max(worst, float(np.linalg.norm(comm)))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(1, "commuting family, 100 instances", worst, 1e-12, elapsed)


def test_criterion_2_h2_both_kinds(set_a):
    started = time.perf_counter()
    worst = max(h2_covector_residual(p, w) for p, w in set_a)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(2, "quadratic eigen-relation, both kinds", worst, 1e-11, elapsed)


def test_criterion_3_h3_rational():
    started = time.perf_counter()
    worst = 0.0
    for k in range(50):
        rng = rng_for(MASTER_SEED, "h3", k)
        n = int(rng.integers(2, 6))
        N = int(rng.integers(2, 4))
        params, weight = random_instance(rng, n, N)
        worst = max(worst, h3_covector_residual(params, weight))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, "cubic eigen-relation, rational", worst, 1e-10, elapsed)


def test_criterion_4_momentum(set_a):
    started = time.perf_counter()
    worst = max(momentum_covector_residual(p, w) for p, w in set_a)
    report(4, "total momentum relation", worst, 1e-12, time.perf_counter() - started)


def test_criterion_5_classical_special_case():
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        rng = rng_for(MASTER_SEED, "special", n)
        x = tuple(float(v) for v in np.sort(rng.uniform(0, 1, n)) + 0.5 * np.arange(n))
        g = tuple(float(a + 1 + rng.uniform(-0.2, 0.2)) for a in range(n))
        params = ModelParams(
            n=n, N=n, x=x, g=g, hbar=float(rng.uniform(0.7, 1.3)),
            kappa=float(rng.uniform(0.2, 0.8)),
        )
        weight = WeightVector((1,) * n)
        assert calogero_energy(weight, params, 2) == pytest.approx(sum(v**2 for v in g))
        worst = max(worst, h2_covector_residual(params, weight))
    report(5, "all-singleton case gives sum of squared twists", worst, 1e-11,
           time.perf_counter() - started)


def test_criterion_6_qc_rational():
    started = time.perf_counter()
    worst = 0.0
    for k in range(20):
        rng = rng_for(MASTER_SEED, "qc-rat", k)
        n = int(rng.integers(4, 7))
        N = int(rng.integers(2, 4))
        params, weight = random_instance(
            rng, n, N, min_gap=0.5, kappa=float(rng.uniform(0.1, 0.35)),
            dim_cap=200, min_dim=2,
        )
        items = gaudin_joint_spectrum(params, weight, seed=k)
        assert len(items) == weight.dimension()
        for item in items:
            rep = qc_check(item, params, weight)
            worst = max(worst, rep.max_mismatch, rep.max_trace_rel_error)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(6, "rational Lax multiset + traces, 20 sectors", worst, 1e-8, elapsed)


def test_criterion_7_qc_trig_strings():
    started = time.perf_counter()
    worst_strings = 0.0
    worst_energy = 0.0
    for k in range(10):
        rng = rng_for(MASTER_SEED, "qc-trig", k)
        n = int(rng.integers(3, 7))
        N = int(rng.integers(2, 4))
        params, weight = random_instance(
            rng, n, N, kind="trigonometric", min_gap=0.5,
            kappa=float(rng.uniform(0.15, 0.4)), dim_cap=150,
            require_multiplicity=True,
        )
        assert max(weight.M) >= 2
        items = gaudin_joint_spectrum(params, weight, seed=k)
        for item in items:
            worst_strings = max(worst_strings, qc_check(item, params, weight).max_mismatch)
        energy_gap = abs(
            string_energy(weight, params, 2) - calogero_energy(weight, params, 2)
        ) / abs(calogero_energy(weight, params, 2))
        worst_energy = max(worst_energy, energy_gap)
    elapsed = time.perf_counter() - started
    assert worst_energy < 1e-12
    report(7, "trigonometric Lax strings, 10 sectors", worst_strings, 1e-7, elapsed)


def test_criterion_8_flatness_loop():
    started = time.perf_counter()
    params = ModelParams(n=3, N=2, x=(0.0, 1.0, 2.4), g=(1.0, 2.0), hbar=1.0, kappa=0.3)
    weight = WeightVector((2, 1))
    conn = KzConnection(params, weight)
    phi = StateVector.uniform(weight)
    loop = PathSpec(
        start=(0.0, 1.0, 2.4),
        waypoints=((0.3, 1.0, 2.4), (0.3, 1.4, 2.4), (0.0, 1.4, 2.4), (0.0, 1.0, 2.4)),
        tolerance=1e-10,
        atol=1e-12,
    )
    out = integrate_path(phi, loop, conn)
    loop_gap = float(np.linalg.norm(out.amplitudes - phi.amplitudes))
    pde = pde_residual_on_solution(out, conn, "h2")
    worst = max(loop_gap, pde)
    report(8, "closed-loop return and on-solution residual", worst, 1e-8,
           time.perf_counter() - started)


def test_criterion_9_identities_and_case_tables():
    started = time.perf_counter()
    worst = 0.0
    for k in range(50):
        rng = rng_for(MASTER_SEED, "ident", k)
        n = int(rng.integers(3, 7))
        N = int(rng.integers(2, 4))
        params, weight = random_instance(rng, n, N, kind="trigonometric")
        worst = max(
            worst,
            *verify_rational_scalar_identities(params.x).values(),
            *verify_twist_sum_identities(params, weight).values(),
            *verify_omega_weight_identity(params, weight).values(),
            *verify_trig_identities(params, weight).values(),
        )
    # exact case tables on every basis state of every subspace of the family
    table_family = [(n, N) for n in range(2, 7) for N in (2, 3)] + [(12, 2)]
    checked = 0
    for n, N in table_family:
        for M in _weights_under(n, N, 1000):
            assert verify_t_case_tables(WeightVector(M)) == 0.0
            checked += 1
    elapsed = time.perf_counter() - started
    print(f"  (case tables exact on {checked} subspaces)")
    report(9, "identity suite, 50 instances + exact tables", worst, 1e-11, elapsed)


def _weights_under(n: int, N: int, dim_cap: int):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for m in range(remaining + 1):
            rec(prefix + [m], remaining - m, slots - 1)

    rec([], n, N)
    return [M for M in out if WeightVector(M).dimension() <= dim_cap]


def test_criterion_10_trig_limit_slope():
    started = time.perf_counter()
    rng = rng_for(MASTER_SEED, "limit", 0)
    params, weight = random_instance(rng, 4, 2, kappa=0.4)
    rat = [
        gaudin_hamiltonian(i, params, weight).materialize().toarray()
        for i in range(1, 5)
    ]
    gammas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    diffs = []
    for gamma in gammas:
        trig = params.replace(kind="trigonometric", gamma=float(gamma))
        worst = max(
            float(
                np.max(
                    np.abs(
                        gaudin_hamiltonian(i, trig, weight).materialize().toarray()
                        - rat[i - 1]
                    )
                )
            )
            for i in range(1, 5)
        )
        diffs.append(worst)
    slope = np.polyfit(np.log(gammas), np.log(diffs), 1)[0]
    elapsed = time.perf_counter() - started
    status = "PASS" if 0.8 <= slope <= 1.2 else "FAIL"
    print(
        f"ACCEPTANCE 10 {status}  trig->rational limit: log-log slope "
        f"{slope:.4f} in [0.8, 1.2]  [{elapsed:.1f}s]"
    )
    assert 0.8 <= slope <= 1.2
