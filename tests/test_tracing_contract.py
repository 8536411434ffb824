"""The names the traced benchmark run (perfbench/tracing.py) patches must exist.

``perfbench/run.py --trace 1`` wraps kzcal from outside the package; a
renamed or deleted function would only show up as a crash of the traced
run, so the contract is pinned here.
"""

import importlib
import pathlib
import sys
from collections import defaultdict

import numpy as np
import pytest

from kzcal import core, kz, operators
from kzcal.config import validate_config
from kzcal.core import ModelParams, WeightVector
from kzcal.errors import ConfigError
from kzcal.suites import run_suites

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
import tracing  # noqa: E402  (importing it patches nothing)

sys.dont_write_bytecode = _write_bytecode


def test_traced_functions_resolve():
    for module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"kzcal.{module}"), attr)), (module, attr)
    for name in ("matvec", "rmatvec", "materialize"):
        assert callable(getattr(operators.TermOperator, name))
    assert callable(core.WeightBasis.swap_table)
    assert callable(kz.solve_ivp)


def test_stepper_result_has_what_the_tracer_reads():
    # tracing.on_ivp adds result.nfev to kz.rhs_evals and counts results
    # whose success is False in kz.ivp_failures
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    done = kz.solve_ivp(rhs, np.ones(3), 1e-10, 1e-12)
    assert type(done.nfev) is int and done.nfev == len(calls) > 0
    assert done.success is True
    calls.clear()
    failed = kz.solve_ivp(lambda t, y: rhs(t, y) * np.nan, np.ones(3), 1e-10, 1e-12)
    assert type(failed.nfev) is int and failed.nfev == len(calls) > 0
    assert failed.success is False


def test_term_cost_reads_trigonometric_terms():
    params = ModelParams(
        n=4, N=2, x=(0.0, 1.1, 2.3, 3.2), g=(1.0, 2.0), hbar=1.0, kappa=0.3,
        kind="trigonometric", gamma=0.7,
    )
    op = operators.gaudin_hamiltonian(2, params, WeightVector((2, 2)))
    assert {term[0] for term in op.terms} == {"diag", "swap", "tswap"}
    v = np.ones(op.dim, dtype=np.complex128)
    counts = defaultdict(float)
    tracing._term_cost(counts, (op, v), op.matvec(v))
    assert counts["operators.term_apps"] == len(op.terms) == 1 + 2 * 3
    assert counts["operators.bytes_computed"] > 3 * len(op.terms) * v.nbytes


def test_benchmark_call_of_run_suites():
    # perfbench/worker.py calls run_suites(config, jobs=1)
    config = validate_config({
        "suites": ["identities", "mc-h2", "qc-rational"],
        "seed": 3,
        "instance": {"random": {"n": 4, "N": 2, "count": 2}},
    })
    plain = run_suites(config)
    pinned = run_suites(config, jobs=1)
    for name, suite in plain.suites.items():
        assert pinned.suites[name].residuals == suite.residuals, name
    with pytest.raises(ConfigError, match="jobs=2"):
        run_suites(config, jobs=2)
