"""Verification-suite orchestration and report assembly.

Each suite maps the configured instance set to one residual per instance and
passes when the max residual stays below its tolerance.  Suites that are
specific to one kernel kind run on a kind-switched twin of the instance
(same coordinates, twists, couplings), so a single instance set can exercise
every suite.  All randomness flows from the run seed through labeled Philox
streams; reports are deterministic up to timestamps and wall times.
"""

from __future__ import annotations

import datetime
import json
import os
import time
import uuid
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .classical import gaudin_joint_spectrum, qc_check, string_energy
from .config import ConfigError, ExplicitSpec, RandomSpec, RunConfig
from .core import (
    RATIONAL,
    TRIGONOMETRIC,
    ModelParams,
    StateVector,
    WeightVector,
    max_or_nan,
    min_pairwise_gap,
    release_bases,
)
from .errors import KzcalError
from .identities import (
    _t_maps,
    verify_omega_weight_identity,
    verify_rational_scalar_identities,
    verify_t_case_tables,
    verify_trig_identities,
    verify_twist_sum_identities,
)
from .instances import random_instance, rng_for
from .kz import (
    KzConnection,
    PathSpec,
    _block_norms,
    commutator_norms,
    flatness_residual,
    integrate_path,
)
from .quantum import (
    calogero_energy,
    h2_covector_residual,
    h3_covector_residual,
    momentum_covector_residual,
    pde_residual_on_solution,
)

__all__ = ["SuiteResult", "RunReport", "run_suites", "emit_plot_data"]

#: per-instance cap on the exact case-table sweep inside the identities suite
T_TABLE_DIM_LIMIT = 200


@dataclass
class SuiteResult:
    name: str
    tolerance: float
    residuals: list[float]
    wall_time_s: float
    instances: list[dict]
    sweep: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r < self.tolerance for r in self.residuals)

    @property
    def max_residual(self) -> float:
        return max_or_nan(self.residuals) if self.residuals else 0.0

    @property
    def median_residual(self) -> float:
        return float(np.median(self.residuals)) if self.residuals else 0.0

    def to_dict(self) -> dict:
        out = {
            "pass": self.passed,
            "tolerance": self.tolerance,
            "count": len(self.residuals),
            "max_residual": self.max_residual,
            "median_residual": self.median_residual,
            "residuals": self.residuals,
            "instances": self.instances,
            "wall_time_s": self.wall_time_s,
        }
        if self.sweep:
            out["sweep"] = self.sweep
        return out


@dataclass
class RunReport:
    seed: int | None
    config_echo: dict
    suites: dict[str, SuiteResult]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites.values())

    def to_dict(self) -> dict:
        return {
            "tool": "kzcal",
            "version": __version__,
            "seed": self.seed,
            "config": self.config_echo,
            "suites": {name: s.to_dict() for name, s in self.suites.items()},
            "overall_pass": self.passed,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }


def _instance_digest(params: ModelParams, weight: WeightVector) -> dict:
    return {
        "n": params.n,
        "N": params.N,
        "M": list(weight.M),
        "kind": params.kind,
        "x": list(params.x),
        "g": list(params.g),
        "hbar": params.hbar,
        "kappa": params.kappa,
        "gamma": params.gamma,
    }


def _as_kind(params: ModelParams, kind: str) -> ModelParams:
    if params.kind == kind:
        return params
    if kind == TRIGONOMETRIC and params.gamma == 0.0:
        return params.replace(kind=kind, gamma=0.6)
    return params.replace(kind=kind)


# -- per-instance suite bodies -------------------------------------------------


def _suite_identities(params, weight, rng):
    residuals = [
        *verify_rational_scalar_identities(params.x).values(),
        *verify_twist_sum_identities(params, weight).values(),
        *verify_omega_weight_identity(params, weight).values(),
        *verify_trig_identities(_as_kind(params, TRIGONOMETRIC), weight).values(),
    ]
    if weight.dimension() <= T_TABLE_DIM_LIMIT:
        residuals.append(verify_t_case_tables(weight))
    return max_or_nan(residuals)


def _suite_commutativity(params, weight, rng):
    conn = KzConnection(params, weight)
    v = StateVector.random(weight, rng).amplitudes
    return max_or_nan([0.0, *commutator_norms(conn, v)])


def _suite_flatness(params, weight, rng):
    return flatness_residual(params, weight, rng)


def _suite_mc_h2(params, weight, rng):
    return h2_covector_residual(params, weight)


def _suite_mc_h3(params, weight, rng):
    return h3_covector_residual(_as_kind(params, RATIONAL), weight)


def _suite_momentum(params, weight, rng):
    return momentum_covector_residual(params, weight)


def _suite_trig_mc(params, weight, rng):
    trig = _as_kind(params, TRIGONOMETRIC)
    residual = h2_covector_residual(trig, weight)
    energy = calogero_energy(weight, trig, 2)
    strings = string_energy(weight, trig, 2)
    energy_gap = abs(energy - strings) / max(abs(energy), 1e-30)
    return max_or_nan([residual, energy_gap])


def _qc_residual(params, weight, rng):
    seed = int(rng.integers(0, 2**63 - 1))
    items = gaudin_joint_spectrum(params, weight, seed=seed)
    gaps = [0.0]
    target_momentum = float(np.dot(weight.M, params.g))
    momentum_scale = max(float(np.dot(weight.M, np.abs(params.g))), 1e-30)
    for item in items:
        report = qc_check(item, params, weight)
        momentum_gap = abs(np.sum(item.p) - target_momentum) / momentum_scale
        gaps += [report.max_mismatch, report.max_trace_rel_error, float(momentum_gap)]
    return max_or_nan(gaps)


def _suite_qc_rational(params, weight, rng):
    return _qc_residual(_as_kind(params, RATIONAL), weight, rng)


def _suite_qc_trig(params, weight, rng):
    return _qc_residual(_as_kind(params, TRIGONOMETRIC), weight, rng)


def _suite_kz_integrate(params, weight, rng):
    """Closed-loop path independence plus the PDE residual on the moved state."""
    params = _as_kind(params, RATIONAL)
    if params.n < 2:
        return 0.0
    x = np.asarray(params.x)
    step = 0.2 * min(min_pairwise_gap(x), 1.0)
    a = x.copy()
    a[0] += step
    b = a.copy()
    b[1] += step
    c = x.copy()
    c[1] += step
    loop = PathSpec(
        start=tuple(x),
        waypoints=(tuple(a), tuple(b), tuple(c), tuple(x)),
        tolerance=1e-10,
        atol=1e-12,
    )
    conn = KzConnection(params, weight)
    initial = StateVector.uniform(weight)
    final = integrate_path(initial, loop, conn)
    gap = final.amplitudes - initial.amplitudes
    loop_gap = float(_block_norms(lambda lo, hi: gap[None, lo:hi], gap.size, 1, whole=True)[0])
    pde = pde_residual_on_solution(final, conn, "h2")
    return max_or_nan([loop_gap, pde])


_SUITE_BODIES = {
    "identities": _suite_identities,
    "commutativity": _suite_commutativity,
    "flatness": _suite_flatness,
    "mc-h2": _suite_mc_h2,
    "mc-h3": _suite_mc_h3,
    "momentum": _suite_momentum,
    "trig-mc": _suite_trig_mc,
    "qc-rational": _suite_qc_rational,
    "qc-trig": _suite_qc_trig,
    "kz-integrate": _suite_kz_integrate,
}


def build_instances(config: RunConfig) -> list[tuple[ModelParams, WeightVector]]:
    if isinstance(config.instance, ExplicitSpec):
        return [(config.instance.params, config.instance.weight)]
    spec: RandomSpec = config.instance
    instances = []
    for k in range(spec.count):
        rng = rng_for(config.seed, "instance", k)
        try:
            instances.append(random_instance(rng, spec.n, spec.N, **spec.options))
        except (KzcalError, ValueError) as exc:  # e.g. hbar 0, or no weight under dim_cap
            raise ConfigError(f"instance.random: {exc}") from exc
    return instances


def _run_one_suite(name, instances, tolerance, seed, sweep) -> SuiteResult:
    body = _SUITE_BODIES[name]

    def residuals(instance_set, *labels):
        # one Philox stream per instance, keyed by the suite, the labels and the index
        return [
            float(body(params, weight, rng_for(seed or 0, name, *labels, idx)))
            for idx, (params, weight) in enumerate(instance_set)
        ]

    started = time.perf_counter()
    plain = residuals(instances)
    sweep_rows = []
    if sweep:
        param = sweep["param"]
        for value in sweep["values"]:
            swept = [(params.replace(**{param: value}), weight) for params, weight in instances]
            sweep_rows.append(
                {"value": value, "max_residual": max_or_nan(residuals(swept, param, value))}
            )
    elapsed = time.perf_counter() - started
    return SuiteResult(
        name=name,
        tolerance=tolerance,
        residuals=plain,
        wall_time_s=elapsed,
        instances=[_instance_digest(p, w) for p, w in instances],
        sweep=sweep_rows,
    )


def run_suites(config: RunConfig, jobs: int = 1, tolerance_scale: float = 1.0) -> RunReport:
    """Execute the configured suites; per-suite failures are recorded, not raised.

    Infrastructure errors (eigensolver non-convergence, integration failure)
    propagate so the caller can distinguish them from verification failures.
    An output path that cannot be written, a tolerance scale that is not
    positive and finite, and a random instance that cannot be drawn raise
    ConfigError before any suite runs.
    Instances run one after another on the calling thread.  `jobs` stays for
    callers that pass jobs=1; any other value raises ConfigError.
    The run owns the bases it builds: when it returns or raises, the basis
    cache and the T maps of the identities are released, so the sectors'
    tables are freed with the last operator that holds them.
    """
    if jobs != 1:
        raise ConfigError(f"jobs={jobs!r}: instances run on one thread; only jobs=1 is accepted")
    if not 0 < tolerance_scale < np.inf:
        raise ConfigError(f"tolerance scale {tolerance_scale!r} must be positive and finite")
    if config.output:
        check_writable(config.output)
    instances = build_instances(config)
    suites: dict[str, SuiteResult] = {}
    try:
        for name in config.suites:
            tol = config.tolerances[name] * tolerance_scale
            suites[name] = _run_one_suite(name, instances, tol, config.seed, config.sweep)
        report = RunReport(seed=config.seed, config_echo=config.echo(), suites=suites)
        if config.output:
            write_report(report, config.output, config.format)
    finally:
        release_bases()
        _t_maps.cache_clear()
    return report


def write_report(report: RunReport, path: str, fmt: str = "json") -> None:
    """Atomic write (temp file + rename)."""
    if fmt == "json":
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    else:
        lines = ["suite,pass,count,max_residual,median_residual,tolerance"]
        for name, s in report.suites.items():
            lines.append(
                f"{name},{int(s.passed)},{len(s.residuals)},{s.max_residual!r},"
                f"{s.median_residual!r},{s.tolerance!r}"
            )
        payload = "\n".join(lines) + "\n"
    write_atomic(path, payload)


def check_writable(path: str) -> None:
    """Raise ConfigError unless write_atomic can create path.

    write_atomic makes the missing directories, so the nearest existing
    ancestor of path's directory must be a writable directory.
    """
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write {path}: {parent} is not a writable directory")


def write_atomic(path: str, payload: str) -> None:
    """Write payload to path through a temp file in the same directory and a rename.

    The temp file is created with mode 0o666 less the umask, as open() would
    create the file itself; the rename keeps that mode.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_plot_data(report: RunReport | dict, out_path: str = "sweep.csv"):
    """CSV (suite, parameter value, residual) of every swept suite, LF endings, atomic.

    Returns the path written, or None (writing nothing) when the report holds
    no sweep data.
    """
    data = report.to_dict() if isinstance(report, RunReport) else report
    rows = [
        f"{name},{entry['value']!r},{entry['max_residual']!r}"
        for name, suite in data.get("suites", {}).items()
        for entry in suite.get("sweep", [])
    ]
    if not rows:
        return None
    write_atomic(out_path, "\n".join(["suite,parameter,residual", *rows]) + "\n")
    return out_path
