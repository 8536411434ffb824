"""Command-line interface.

Subcommands:
  verify     run verification suites from a JSON config
  spectrum   dump the Gaudin joint spectrum of one explicit instance
  qc         quantum-classical Lax-spectrum check of one explicit instance
  integrate  propagate a state along a piecewise-linear path (demo)

Exit codes: 0 all checks passed, 1 a verification failed, 2 infrastructure
error (eigensolver or integrator gave up), 3 configuration or usage error (a
bad config file, option or argument value).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .classical import gaudin_joint_spectrum, qc_check
from .config import ConfigError, load_config
from .core import ModelParams, StateVector, WeightVector, check_instance, max_or_nan
from .errors import KzcalError, SingularPathError
from .kz import KzConnection, PathSpec, integrate_path, mc_derivatives, mc_wavefunction
from .suites import check_writable, emit_plot_data, run_suites, write_atomic

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INFRA = 2
EXIT_CONFIG = 3


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _waypoints(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(part) for part in text.split(";"))


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ConfigError: one line on stderr and exit 3."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="number of marked points")
    parser.add_argument("--N", type=int, required=True, help="dimension of the site space")
    parser.add_argument("--x", type=_floats, required=True, help="comma-separated coordinates")
    parser.add_argument("--g", type=_floats, required=True, help="comma-separated twist values")
    parser.add_argument("--weight", type=_ints, required=True, help="comma-separated occupations")
    parser.add_argument("--hbar", type=float, default=1.0)
    parser.add_argument("--kappa", type=float, default=0.3)
    parser.add_argument("--gamma", type=float, default=0.0)
    parser.add_argument("--kind", choices=("rational", "trigonometric"), default="rational")
    parser.add_argument("--seed", type=int, default=0)


def _instance_from_args(args) -> tuple[ModelParams, WeightVector]:
    """The instance the options describe; an invalid one is a ConfigError (exit 3)."""
    try:
        params = ModelParams(
            n=args.n,
            N=args.N,
            x=args.x,
            g=args.g,
            hbar=args.hbar,
            kappa=args.kappa,
            gamma=args.gamma,
            kind=args.kind,
        )
        weight = WeightVector(args.weight)
        check_instance(params, weight)
    except KzcalError as exc:
        raise ConfigError(str(exc)) from exc
    return params, weight


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kzcal", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run verification suites from a config file")
    ver.add_argument("--config", required=True, help="path to a JSON run configuration")
    ver.add_argument("--seed", type=int, default=None, help="override the config seed")
    ver.add_argument("--out", default=None, help="override the report output path")
    ver.add_argument("--format", choices=("json", "csv"), default=None)
    ver.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiply all suite tolerances (CI headroom)",
    )
    ver.add_argument("--plot-data", default=None, help="write sweep CSV to this path")

    spec = sub.add_parser("spectrum", help="dump the joint spectrum of one instance")
    _add_instance_args(spec)
    spec.add_argument("--out", default=None, help="write the spectrum JSON here")

    qc = sub.add_parser("qc", help="quantum-classical Lax spectrum check")
    _add_instance_args(qc)
    qc.add_argument("--tol", type=float, default=None, help="override the mismatch tolerance")

    integ = sub.add_parser("integrate", help="propagate a state along a path")
    _add_instance_args(integ)
    integ.add_argument(
        "--waypoints",
        type=_waypoints,
        required=True,
        help="semicolon-separated coordinate snapshots, e.g. '0.1,1,2;0.1,1.3,2'",
    )
    integ.add_argument("--tolerance", type=float, default=1e-10)
    return parser


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, output=args.out)
    if args.format is not None:
        config = replace(config, format=args.format)
    if args.plot_data:
        check_writable(args.plot_data)
    report = run_suites(config, tolerance_scale=args.tolerance_scale)
    for name, suite in report.suites.items():
        status = "PASS" if suite.passed else "FAIL"
        print(
            f"{name:<14} {status}  max={suite.max_residual:.3e}  "
            f"median={suite.median_residual:.3e}  tol={suite.tolerance:.1e}  "
            f"({len(suite.residuals)} instances, {suite.wall_time_s:.2f}s)"
        )
    print("overall:", "PASS" if report.passed else "FAIL")
    if args.plot_data and emit_plot_data(report, out_path=args.plot_data) is None:
        print("plot data: no parameter sweep in this report; nothing written")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_spectrum(args) -> int:
    params, weight = _instance_from_args(args)
    if args.out:
        check_writable(args.out)
    items = gaudin_joint_spectrum(params, weight, seed=args.seed)
    payload = {
        "dimension": len(items),
        "items": [
            {
                "p": [[float(v.real), float(v.imag)] for v in item.p],
                "max_residual": float(np.max(item.residuals)),
            }
            for item in items
        ],
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        write_atomic(args.out, text + "\n")
    else:
        print(text)
    return EXIT_PASS


def _cmd_qc(args) -> int:
    params, weight = _instance_from_args(args)
    if args.tol is not None and not 0 < args.tol < np.inf:
        raise ConfigError(f"--tol {args.tol!r} must be positive and finite")
    items = gaudin_joint_spectrum(params, weight, seed=args.seed)
    mismatches = [0.0]
    ok = True
    for k, item in enumerate(items):
        report = qc_check(item, params, weight, tol=args.tol)
        ok = ok and report.ok
        mismatches.append(report.max_mismatch)
        print(f"item {k}: {report.summary()}")
    print(f"worst eigenvalue mismatch over {len(items)} items: {max_or_nan(mismatches):.3e}")
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_integrate(args) -> int:
    params, weight = _instance_from_args(args)
    conn = KzConnection(params, weight)
    initial = StateVector.uniform(weight)
    try:
        path = PathSpec(start=params.x, waypoints=args.waypoints, tolerance=args.tolerance)
        final = integrate_path(initial, path, conn)
    except SingularPathError as exc:  # the path is checked before the first segment runs
        raise ConfigError(str(exc)) from exc
    end_params = params.replace(x=path.waypoints[-1])
    end_conn = KzConnection(end_params, weight)
    ders = mc_derivatives(final, end_conn, max_order=1)
    print(f"initial wavefunction: {mc_wavefunction(initial):.12g}")
    print(f"final wavefunction:   {mc_wavefunction(final):.12g}")
    print("final d(psi)/dx_i:   ", [f"{d:.6g}" for d in ders[0]])
    return EXIT_PASS


def main(argv=None) -> int:
    handlers = {
        "verify": _cmd_verify,
        "spectrum": _cmd_spectrum,
        "qc": _cmd_qc,
        "integrate": _cmd_integrate,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KzcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
