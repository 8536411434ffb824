"""Per-state data lives in the basis, and a run owns its bases.

A run releases the basis cache (and with it the swap tables) when it
returns; a plain swap carries no sign array, and a signed swap's sign array
lives only while an operator holds it; a diagonal is a sum of per-letter
tables, formed for each row range from the basis letters.
"""

import itertools
import warnings
import weakref

import numpy as np
import oracles
import pytest

from kzcal import suites
from kzcal.config import validate_config
from kzcal.core import ModelParams, WeightBasis, WeightVector, get_basis, release_bases
from kzcal.errors import IntegrationFailureError, ModelAssumptionWarning
from kzcal.kernel import diag_term
from kzcal.kz import KzConnection, _path_diagonal
from kzcal.operators import (
    RowKernel,
    gaudin_derivative,
    gaudin_hamiltonian,
    twist_operator,
    weight_operator,
)
from kzcal.suites import run_suites

FLOAT64_SUITES = ["commutativity", "flatness", "mc-h2", "momentum", "trig-mc", "kz-integrate"]


@pytest.fixture
def site_tables(monkeypatch):
    """Weak references to every site table built while the test runs."""
    made = []
    build = WeightBasis._site_tables

    def recording(self):
        tables = build(self)
        made.extend(weakref.ref(table) for table in tables)
        return tables

    monkeypatch.setattr(WeightBasis, "_site_tables", recording)
    return made


def _config(tmp_path, suite_names=FLOAT64_SUITES):
    return validate_config({
        "suites": suite_names,
        "seed": 5,
        "instance": {"random": {"n": 5, "N": 2, "count": 2}},
        "output": str(tmp_path / "report.json"),
    })


def _bits(report):
    return [r.hex() for suite in report.suites.values() for r in suite.residuals]


def test_a_run_owns_its_bases_until_it_returns(site_tables, monkeypatch, tmp_path):
    # the tables live while the report is written, are dead once run_suites
    # returns, and a second run rebuilds them with the same residual bits;
    # no basis of an earlier test may stand in for the ones the run builds
    release_bases()
    alive_at_write = []
    write = suites.write_report

    def recording(report, path, fmt="json"):
        alive_at_write.append([ref() is not None for ref in site_tables])
        write(report, path, fmt)

    monkeypatch.setattr(suites, "write_report", recording)
    config = _config(tmp_path)
    first = run_suites(config)
    assert site_tables and alive_at_write == [[True] * len(site_tables)]
    assert all(ref() is None for ref in site_tables)
    built = len(site_tables)
    second = run_suites(config)
    assert len(site_tables) == 2 * built
    assert _bits(second) == _bits(first)
    assert all(ref() is None for ref in site_tables)


def test_a_failing_run_releases_its_bases(site_tables, monkeypatch, tmp_path):
    # an infrastructure error propagates out of run_suites, and the tables
    # built before it go all the same
    def failing(params, weight, rng):
        KzConnection(params, weight).hamiltonian(1).row_kernel()
        raise IntegrationFailureError("stop")

    monkeypatch.setitem(suites._SUITE_BODIES, "kz-integrate", failing)
    with pytest.raises(IntegrationFailureError):
        run_suites(_config(tmp_path))
    assert site_tables and all(ref() is None for ref in site_tables)


def _params(weight, kind="rational", seed=0):
    rng = np.random.default_rng(seed)
    n, N = weight.n, weight.N
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)  # n < N
        return ModelParams(
            n=n, N=N, x=tuple(1.3 * np.arange(n) + rng.uniform(0.0, 0.5, n)),
            g=tuple(np.arange(1, N + 1) + rng.uniform(-0.3, 0.3, N)),
            hbar=rng.uniform(0.8, 1.2), kappa=rng.uniform(0.2, 0.6), kind=kind, gamma=0.7,
        )


def test_rational_operators_build_no_sign_array(monkeypatch):
    # a plain swap reads only its table; the trigonometric H_i build each
    # pair's sign once and share it, and it goes with the last of them
    weight = WeightVector((2, 2, 1))
    calls = []
    sign_of = WeightBasis.swap_sign
    monkeypatch.setattr(
        WeightBasis, "swap_sign", lambda self, i, j: calls.append((i, j)) or sign_of(self, i, j)
    )
    basis = get_basis(weight)
    conn = KzConnection(_params(weight), weight)
    ops = [conn.hamiltonian(i) for i in range(1, 6)]
    ops += [conn.derivative(i, order=k) for i in range(1, 6) for k in (1, 2)]
    for op in ops:
        op.matvec(np.ones(op.dim))
    assert calls == [] and len(basis._signs) == 0
    assert all(term[0] != "tswap" for op in ops for term in op.terms)

    trig = KzConnection(_params(weight, "trigonometric"), weight)
    terms = [term for i in range(1, 6) for term in trig.hamiltonian(i).terms]
    signs = [term[2] for term in terms if term[0] == "tswap"]
    assert len(signs) == 20 and len({id(sign) for sign in signs}) == len(basis._signs) == 10
    del trig, terms, signs
    assert len(basis._signs) == 0


def _all_weights(max_n, max_N):
    for N in range(1, max_N + 1):
        for M in itertools.product(range(max_n + 1), repeat=N):
            if 1 <= sum(M) <= max_n:
                yield WeightVector(M)


def _assert_diagonals_match_the_oracles(weight, seed):
    # every diag term the package builds, as the kernel forms it over the
    # whole sector and over two ranges, bitwise against the per-state
    # oracle; a diagonal operator's action on a real and a complex state too
    params = _params(weight, seed=seed)
    basis = get_basis(weight)
    n, N, dim = weight.n, weight.N, weight.dimension()
    cases = []
    for i in range(1, n + 1):
        want = oracles.twist_per_state(basis, params.g, i - 1)
        cases += [(gaudin_hamiltonian(i, params, weight), want)]
        cases += [(twist_operator(i, params, weight), want)]
    for a in range(1, N + 1):
        cases.append((weight_operator(a, weight), oracles.letter_count_per_state(basis, a)))
    if n == 1:
        cases.append((gaudin_derivative(1, 1, 1, params, weight), np.zeros(dim)))
    rng = np.random.default_rng(seed)
    for moving in (np.arange(n) == n - 1, rng.random(n) < 0.6, np.ones(n, dtype=bool)):
        vel = np.where(moving, rng.uniform(-0.3, 0.3, n), 0.0)
        if vel.any():
            term = _path_diagonal(params.g, vel)
            kernel = RowKernel.from_terms(dim, [term], letters=basis.states)
            cases.append((kernel, oracles.segment_diag_per_state(basis, params.g, vel)))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    split = dim // 3
    for op, want in cases:
        kernel = op if isinstance(op, RowKernel) else op.row_kernel()
        whole = kernel.diagonal(0, dim)
        parts = np.concatenate([kernel.diagonal(0, split), kernel.diagonal(split, dim)])
        for got in (whole, parts):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), weight.M
        if kernel.width == 0:
            for x in (v.real.copy(), v):
                assert kernel.apply(x).tobytes() == (0.0 + want * x).tobytes(), weight.M


@pytest.mark.parametrize(
    "weights",
    [
        list(_all_weights(7, 3)),
        [WeightVector((6, 5, 3))],
        [WeightVector(tuple({1: 1, 129: 2, 130: 1}.get(a, 0) for a in range(1, 131)))],
    ],
    ids=["n<=7,N<=3", "653", "N130"],
)
def test_letter_diagonals_match_the_per_state_oracle(weights):
    for k, weight in enumerate(weights):
        _assert_diagonals_match_the_oracles(weight, k)
    if weights[0].N == 130:
        assert get_basis(weights[0]).states.max() == 130


def test_one_twist_table_per_instance():
    # every H_i and twist operator of an instance reads one read-only table
    # of g, with the values and the unread NaN slot of diag_term's table
    weight = WeightVector((2, 2, 1))
    for kind in ("rational", "trigonometric"):
        params = _params(weight, kind)
        conn = KzConnection(params, weight)
        table = conn.hamiltonian(1).terms[0][1]
        assert table is conn.hamiltonian(2).terms[0][1]
        assert table is twist_operator(3, params, weight).terms[0][1] is params.twist_table
        assert not table.flags.writeable
        np.testing.assert_array_equal(table, diag_term([params.g], (0,))[1])
