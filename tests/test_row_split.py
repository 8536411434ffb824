"""Row-parallel kernels: results do not depend on how many threads share the rows."""

import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kzcal
from kzcal import kz, operators
from kzcal.core import ModelParams, StateVector, WeightVector
from kzcal.kz import (
    KzConnection,
    PathSpec,
    _segment_rhs,
    commutator_norms,
    flatness_residual,
    integrate_path,
)
from kzcal.config import load_config
from kzcal.operators import split_rows, t_operator
from kzcal.suites import run_suites

PAIRS = ModelParams(
    n=5, N=3, x=(0.0, 1.1, 2.3, -0.9, 3.4), g=(1.0, 2.0, 2.7), hbar=0.9, kappa=0.35,
    gamma=0.6,
)
W221 = WeightVector((2, 2, 1))
SINGLE = ModelParams(n=1, N=1, x=(0.0,), g=(1.0,), hbar=1.0, kappa=0.3)


class CountingPool(ThreadPoolExecutor):
    """Executor that counts the ranges handed to it."""

    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def rows_on(monkeypatch):
    """rows_on(workers): share rows with that many pool threads, in chunks of >= 4 rows.

    workers=0 is the serial path.  The sweeps and the norms use 3-row blocks
    throughout, so that the serial and split reductions add the same block
    sums.
    """
    pools = []
    monkeypatch.setattr(kz, "SWEEP_ROWS", 3)

    def use(workers):
        pool = CountingPool(workers) if workers else None
        pools.append(pool)
        monkeypatch.setattr(operators, "_POOL", pool)
        monkeypatch.setattr(operators, "_WORKERS", workers)
        monkeypatch.setattr(operators, "MIN_CHUNK_ROWS", 4)
        return pool

    yield use
    for pool in pools:
        if pool is not None:
            pool.shutdown()


def test_split_rows_covers_the_rows_in_order(rows_on):
    rows_on(3)
    caller = threading.get_ident()
    for stop, step, parts in ((30, 1, 4), (30, 7, 4), (17, 3, 2), (9, 1, 2), (7, 1, 1)):
        calls = split_rows(lambda lo, hi: (lo, hi, threading.get_ident()), stop, step)
        ends = [lo for lo, _, _ in calls] + [calls[-1][1]]
        assert len(calls) == parts
        assert ends[0] == 0 and ends[-1] == stop
        assert [hi for _, hi, _ in calls] == ends[1:]
        assert all(end % step == 0 for end in ends[:-1])
        assert all(hi - lo >= 4 for lo, hi, _ in calls)
        assert calls[0][2] == caller


def test_split_rows_stays_inline_below_the_chunk_size(monkeypatch):
    pool = CountingPool(3)
    monkeypatch.setattr(operators, "_POOL", pool)
    monkeypatch.setattr(operators, "_WORKERS", 3)
    caller = threading.get_ident()
    try:
        stop = 2 * operators.MIN_CHUNK_ROWS - 1
        assert split_rows(lambda lo, hi: (lo, hi, threading.get_ident()), stop) == [
            (0, stop, caller)
        ]
        assert pool.submitted == 0
    finally:
        pool.shutdown()


@pytest.mark.parametrize("workers", [0, 1, 3])
def test_block_norms_add_the_blocks_in_row_order(rows_on, workers):
    # magnitudes spread over 24 decades, so another order of the block sums
    # would round differently
    rows_on(workers)
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.uniform(-12, 12, (6, 100))
    data = (rng.standard_normal((6, 100)) + 1j * rng.standard_normal((6, 100))) * scale
    total = np.zeros(6)
    for lo in range(0, 100, 3):
        C = data[:, lo : lo + 3]
        total += np.sum(C.real * C.real + C.imag * C.imag, axis=1)
    got = kz._block_norms(lambda lo, hi: data[:, lo:hi], 100, 6)
    np.testing.assert_array_equal(got, np.sqrt(total))


def kernel_results(params, weight):
    """Every row-split kernel on fixed real and complex states of one sector."""
    conn = KzConnection(params, weight)
    n, dim = params.n, weight.dimension()
    rng = np.random.default_rng(21)
    states = [rng.standard_normal(dim), StateVector.random(weight, rng).amplitudes]
    ops = [conn.hamiltonian(i) for i in range(1, n + 1)]
    ops += [conn.derivative(i, order=k) for i in range(1, n + 1) for k in (1, 2)]
    ops += [t_operator(i, j, weight) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    out = []
    for v in states:
        for op in ops:
            out += [op.matvec(v), op.rmatvec(v)]
        if n > 1:
            x = np.asarray(params.x)
            out.append(_segment_rhs(conn, x, x + 0.05 * np.arange(n))(0.3, v))
            path = PathSpec(start=params.x, waypoints=(tuple(x + 0.05 * np.arange(n)),))
            out.append(integrate_path(StateVector(weight, v), path, conn).amplitudes)
        out.append(commutator_norms(conn, v.astype(complex)))
    out.append(flatness_residual(params, weight, np.random.default_rng(22)))
    return out


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "params, weight",
    [
        (PAIRS, W221),
        (PAIRS.replace(kind="trigonometric"), W221),
        (SINGLE, WeightVector((1,))),
    ],
    ids=["rational", "trigonometric", "n=1"],
)
def test_kernels_do_not_depend_on_worker_count(rows_on, workers, params, weight):
    # chunk edges fall inside the 30-state sector, also in the stepper's
    # stage sums and norms; a short switch interval
    # interleaves the threads as often as the interpreter allows
    rows_on(0)
    serial = kernel_results(params, weight)
    pool = rows_on(workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = kernel_results(params, weight)
    finally:
        sys.setswitchinterval(interval)
    assert len(split) == len(serial)
    for got, want in zip(split, serial):
        np.testing.assert_array_equal(got, want)
    assert (pool.submitted > 0) == (params.n > 1)


def test_caller_threads_share_the_row_pool(rows_on, tmp_path):
    # two threads of a library caller hand row ranges to the pool at the
    # same time; each report equals the serial one and both runs end
    path = tmp_path / "cfg.json"
    suites = ["commutativity", "flatness", "mc-h2", "mc-h3", "momentum", "trig-mc", "kz-integrate"]
    payload = {
        "suites": suites,
        "seed": 7,
        "instance": {"random": {"n": 5, "N": 2, "count": 4, "dim_cap": 30}},
    }
    path.write_text(json.dumps(payload))
    config = load_config(str(path))
    rows_on(0)
    serial = run_suites(config)
    pool = rows_on(3)
    reports = [None, None]

    def run(k):
        reports[k] = run_suites(config)

    runners = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for runner in runners:
        runner.start()
    for runner in runners:
        runner.join(timeout=120)
    assert not any(runner.is_alive() for runner in runners)
    assert pool.submitted > 0
    for report in reports:
        for name in suites:
            assert report.suites[name].residuals == serial.suites[name].residuals, name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_splits_rows_on_its_own_pool(rows_on):
    # the child inherits the pool object but not its started threads
    rows_on(1)
    terms = [("swap", np.arange(40)[::-1].copy(), 2.0)]
    v = np.arange(40.0)
    want = 2.0 * v[::-1]
    np.testing.assert_array_equal(operators.apply_terms(terms, v), want)  # starts the thread
    pid = os.fork()
    if pid == 0:  # child: exit 0 only if the split finishes within the alarm
        signal.alarm(20)
        ok = np.array_equal(operators.apply_terms(terms, v), want)
        os._exit(0 if ok and operators._POOL is not None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


BLAS_PROBE = """
from kzcal.config import validate_config
from kzcal.suites import run_suites

SUITES = ["kz-integrate", "commutativity", "flatness"]
config = validate_config({
    "suites": SUITES,
    "seed": 5,
    "instance": {"explicit": {
        "n": 11, "N": 3, "x": [1.3 * k for k in range(11)], "g": [1.0, 2.0, 2.7],
        "hbar": 1.0, "kappa": 0.5, "weight": [4, 4, 3],
    }},
})
report = run_suites(config)
print(repr([report.suites[name].residuals for name in SUITES]))
"""


def test_residuals_do_not_depend_on_blas_threads():
    # dim 11550: OpenBLAS splits a dot product or a norm of more than 10000
    # elements over its threads, so a BLAS call on these paths would round
    # differently under one and two threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(kzcal.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0].startswith("[[") and outputs[0] == outputs[1]
