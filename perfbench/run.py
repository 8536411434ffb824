"""kzcal benchmark: run one workload through ``run_suites`` and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-example --seed 1 --seconds 35 --trace 0

Each repetition is a fresh ``python3 perfbench/worker.py`` process that
imports kzcal from ``src/``, validates the workload's configs, builds their
instances and runs every config through ``kzcal.suites.run_suites`` with
``jobs=1``, as ``kzcal verify`` does.  Repetitions run one after another
until the next one would overrun ``--seconds`` (at least one runs).

``--trace 0`` reports the end-to-end metrics, medians over repetitions:
``wall_norm_s`` (first ``run_suites`` call to last report written, rescaled
to a fixed machine speed with the reference kernel of ``speedprobe.py``
sampled during the run), ``setup_s`` (process start to instances built, also
sampled by five set-up-only processes, three before the repetitions and two
after them) and ``peak_rss_mb`` (peak resident
memory of the worker).  The unscaled wall time is on the detail line.
``--trace 1`` runs traced repetitions instead and reports the per-layer
metrics of ``tracing.py`` (medians over repetitions), the traced wall time
``trace.wall_s`` (tracing overhead = ``trace.wall_s`` - the untraced
``wall_s`` of the detail line) and the verification outcome.

A check is one (suite, instance) residual; it fails when the residual is not
below its tolerance, is not finite, or ``run_suites`` raised ``KzcalError``.
Failed checks are counted in ``failed`` against ``attempted`` and listed by id
on the line before the result; they never stop a run.  ``correct`` is false
when repetitions (or a re-run of the first config inside a worker) disagree
bitwise on any residual, or a written report does not match its run.

The last stdout line is the result object; the line before it gives the
detail: machine, per-repetition times, failing checks, failed_frac and
worst_residual_ratio.  Outputs go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, make_configs

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up-only workers launched before and after the measured repetitions, so
# that the set-up samples of a run come from two moments half a minute apart
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
# a run must end within 180 s; no worker may outlive this point
HARD_LIMIT_S = 170.0
# wall_norm_s is in seconds on a machine where one speedprobe kernel takes
# this long; on the 2-vCPU virtual machine the benchmark was made on it took
# 4.7-6.7 ms
NOMINAL_KERNEL_S = 5e-3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Writes the jobs of one benchmark run and launches its worker processes."""

    def __init__(self, root: str, workdir: str, configs: list[tuple[str, dict]], trace: bool):
        self.workdir = workdir
        self.trace = trace
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.src = src
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.config_files = []
        for label, cfg in configs:
            cfg = dict(cfg, output=os.path.join(workdir, f"report-{label}.json"))
            path = os.path.join(workdir, f"config-{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1)
            self.config_files.append([label, path])
        self.started = time.monotonic()
        self.launched = 0

    def launch(self, setup_only: bool) -> dict:
        """One worker process; returns its result with the measured setup_s."""
        self.launched += 1
        name = f"{self.launched:03d}"
        job = {
            "configs": self.config_files,
            "trace": self.trace and not setup_only,
            "setup_only": setup_only,
            "result": os.path.join(self.workdir, f"result-{name}.json"),
            "spans": os.path.join(self.workdir, f"spans-{name}.jsonl"),
        }
        job_path = os.path.join(self.workdir, f"job-{name}.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        timeout = HARD_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise RuntimeError("no time left for another worker")
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path],
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        if os.path.commonpath([result["kzcal"], self.src]) != self.src:
            raise RuntimeError(f"worker imported kzcal from {result['kzcal']}, not {self.src}")
        result["setup_s"] = result["setup_done"] - spawned
        return result


def _residual_bits(result: dict) -> list:
    return [
        (c["id"], c.get("error") or float(c["residual"]).hex()) for c in result["checks"]
    ]


def _verdict(reps: list[dict]) -> tuple[dict, list[str]]:
    """Failure accounting of one repetition and the problems found across all of them."""
    problems = [p for r in reps for p in r["problems"]]
    first = _residual_bits(reps[0])
    for k, rep in enumerate(reps[1:], start=2):
        if _residual_bits(rep) != first:
            problems.append(f"repetition {k} residuals differ bitwise from repetition 1")
    checks = reps[0]["checks"]
    failing = [c["id"] for c in checks if c["failed"]]
    ratios = [
        (c["residual"] / c["tolerance"], c["id"]) for c in checks
        if c["residual"] is not None and math.isfinite(c["residual"])
    ]
    # over checks with a finite residual; errored and non-finite ones count in failed_frac
    worst = max(ratios) if ratios else (0.0, None)
    outcome = {
        "checks": len(checks),
        "failing_checks": failing,
        "failed_frac": len(failing) / len(checks),
        "worst_residual_ratio": worst[0],
        "worst_check": worst[1],
    }
    return outcome, problems


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kzcal", "__init__.py")):
        print("perfbench: run from the repository root; src/kzcal is missing", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    runner = Runner(root, workdir, make_configs(args.workload, args.seed), bool(args.trace))
    try:
        probes = (0, 0) if args.trace else (SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER)
        setup_samples = [runner.launch(setup_only=True)["setup_s"] for _ in range(probes[0])]
        reps, durations = [], []
        while True:
            began = time.monotonic()
            reps.append(runner.launch(setup_only=False))
            durations.append(time.monotonic() - began)
            elapsed = time.monotonic() - runner.started
            if elapsed + statistics.median(durations) > args.seconds:
                break
        setup_samples += [runner.launch(setup_only=True)["setup_s"] for _ in range(probes[1])]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    outcome, problems = _verdict(reps)
    setup_samples += [r["setup_s"] for r in reps]
    walls = [r["wall_s"] for r in reps]
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in reps), "unit": _unit(name)}
            for name in reps[0]["layers"]
        }
        metrics["trace.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["suites.checks"] = {"value": outcome["checks"], "unit": "count"}
        metrics["suites.failed_frac"] = {"value": outcome["failed_frac"], "unit": "ratio"}
        metrics["suites.worst_residual_ratio"] = {"value": outcome["worst_residual_ratio"], "unit": "ratio"}
    else:
        metrics = {
            "wall_norm_s": {"value": statistics.median(_normalized(r) for r in reps), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps), "unit": "MB"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "wall_s": walls,
        "cpu_s": [r["cpu_s"] for r in reps],
        "wall_norm_s": None if args.trace else [_normalized(r) for r in reps],
        "kernel_ms": None if args.trace else [1e3 * statistics.mean(r["probe_kernel_s"]) for r in reps],
        "setup_s": setup_samples,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        **outcome,
        "problems": problems,
        "machine": reps[0]["machine"],
    }
    for text in problems:
        print(f"perfbench: {text}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome["checks"],
        "failed": len(outcome["failing_checks"]),
        "metrics": metrics,
    }))
    return 0


def _normalized(rep: dict) -> float:
    """Wall time without the probe's own time, at the kernel's nominal speed."""
    work = rep["wall_s"] - rep["probe_overhead_s"]
    return work * NOMINAL_KERNEL_S / statistics.mean(rep["probe_kernel_s"])


def _unit(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    if metric.endswith("bytes_computed"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
