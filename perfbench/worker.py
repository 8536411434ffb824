"""One measured kzcal process: set up, run every config of a workload, report.

Usage: python3 perfbench/worker.py JOB.json

JOB.json (written by run.py) holds the configs, the output directory and the
flags.  The process imports kzcal, validates every config and builds its
instances (set-up ends here), then calls ``run_suites`` once per config with
``jobs=1``; each call writes its report (wall time ends after the last one).
In an untraced run ``speedprobe.SpeedProbe`` samples the machine's speed
throughout the timed region.
Everything else (reading reports back, checking them, tracing summaries) is
done after the timed region and written to the result file named in the job.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time


def _machine() -> dict:
    """Facts about the interpreter, libraries and CPU, read without /proc or /sys."""
    import ctypes
    import glob
    import platform

    import mpmath
    import numpy as np
    import scipy

    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # numpy's bundled OpenBLAS is already loaded; dlopen returns the same handle
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        # glibc _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE (per core / shared)
        "l2_bytes": libc.sysconf(191),
        "l3_bytes": libc.sysconf(194),
        "jobs": 1,
    }


def _checks(label, config, report, written) -> tuple[list[dict], list[str]]:
    """One check per (suite, instance), plus problems found in the written report."""
    checks, problems = [], []
    if written.get("config") != report.config_echo or set(written.get("suites", {})) != set(report.suites):
        problems.append(f"{label}: written report does not echo the run")
    expected_count = getattr(config.instance, "count", 1)
    for suite, result in report.suites.items():
        on_disk = written.get("suites", {}).get(suite, {})
        if _bits(on_disk.get("residuals", [])) != _bits(result.residuals):
            problems.append(f"{label}/{suite}: report residuals differ from the run")
        if len(result.residuals) != expected_count:
            problems.append(f"{label}/{suite}: {len(result.residuals)} residuals for {expected_count} instances")
        if on_disk.get("pass") != result.passed:
            problems.append(f"{label}/{suite}: report pass flag is wrong")
        for k, residual in enumerate(result.residuals):
            checks.append({
                "id": f"{label}/{suite}/{k}",
                "residual": residual,
                "tolerance": result.tolerance,
                "failed": not (math.isfinite(residual) and residual < result.tolerance),
            })
    return checks, problems


def _error_checks(label, config, exc) -> list[dict]:
    """An infrastructure error aborts run_suites, so every check of its config fails."""
    count = getattr(config.instance, "count", 1)
    return [
        {"id": f"{label}/{suite}/{k}", "residual": None, "tolerance": config.tolerances[suite],
         "failed": True, "error": f"{type(exc).__name__}: {exc}"}
        for suite in config.suites
        for k in range(count)
    ]


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()

    import kzcal
    from kzcal import config as kconfig
    from kzcal import suites
    from kzcal.errors import KzcalError

    if tracer is not None:
        tracing.install(tracer)
    configs = []
    for label, path in job["configs"]:
        cfg = kconfig.load_config(path)
        suites.build_instances(cfg)
        configs.append((label, cfg))
    setup_done = time.monotonic()
    result = {"setup_done": setup_done, "kzcal": os.path.abspath(kzcal.__file__)}
    if job["setup_only"]:
        _write(job["result"], result)
        return 0

    probe = None
    if tracer is None:  # in a traced run the probe would run inside the spans
        from speedprobe import SpeedProbe

        probe = SpeedProbe()
        probe.start()
    reports = []
    started = time.perf_counter()
    cpu_started = time.process_time()
    for label, cfg in configs:
        if tracer is not None:
            tracer.run_id = label
        try:
            reports.append(suites.run_suites(cfg, jobs=1))
        except KzcalError as exc:
            reports.append(exc)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    if probe is not None:
        probe.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checks, problems = [], []
    for (label, cfg), report in zip(configs, reports):
        if isinstance(report, Exception):
            checks += _error_checks(label, cfg, report)
            continue
        with open(cfg.output, encoding="utf-8") as fh:
            written = json.load(fh)
        found, bad = _checks(label, cfg, report, written)
        checks += found
        problems += bad

    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        tracer.write(job["spans"])
    else:
        # determinism inside one process: the first config again, caches warm
        label, cfg = configs[0]
        try:
            again = suites.run_suites(cfg, jobs=1)
            rerun = [r for s in again.suites.values() for r in s.residuals]
        except KzcalError as exc:
            rerun = f"{type(exc).__name__}: {exc}"
        first = reports[0]
        before = (
            f"{type(first).__name__}: {first}" if isinstance(first, Exception)
            else [r for s in first.suites.values() for r in s.residuals]
        )
        if _bits(rerun) != _bits(before):
            problems.append(f"{label}: rerun in the same process gave different residuals")

    result.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_kernel_s": probe.kernel_s if probe else None,
        "probe_overhead_s": probe.overhead_s if probe else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
        "checks": checks,
        "problems": problems,
        "layers": layers,
        "machine": _machine(),
    })
    _write(job["result"], result)
    return 0


def _bits(residuals):
    if isinstance(residuals, str):
        return residuals
    return [float(r).hex() for r in residuals]


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
