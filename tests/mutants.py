"""Mutation checks: apply one small fault to a copy of the package and run the tests meant to catch it.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries

Each entry names a file under src/kzcal, the exact text to replace (it must
occur exactly once), its replacement, a pytest selection and the expected
outcome: "killed" (the selection fails) or "equivalent" (no test can tell,
for the reason given).  Every mutation is applied in a fresh temporary copy
of src/, tests/, perfbench/ and pyproject.toml, because pyproject's
pythonpath = ["src"] would import the unmutated package from the repository
itself.  The exit status is 1 when a "killed" entry survives, an
"equivalent" entry is killed, an old text is stale, or pytest ends with
another status than 0 (survived) or 1 (killed), e.g. on a collection error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/kzcal
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments: node ids, files, -k expressions
    equivalent: str = ""  # why no test can tell, for an expected survivor


MUTANTS = [
    # -- the float64 momenta and the one Lax check path --------------------------
    Mutant(
        "rayleigh-without-conj",
        "classical.py",
        'p[i] = np.einsum("ij,ij->j", vecs.conj(), mv)',
        'p[i] = np.einsum("ij,ij->j", vecs, mv)',
        ("tests/test_classical.py", "-k", "charpoly_lax_spectrum or pin_the_characteristic"),
        equivalent=(
            "the eigenvalues of the real combination are real, so LAPACK returns "
            "real eigenvectors and conj() leaves them unchanged"
        ),
    ),
    Mutant(
        "trig-momenta-real",
        "classical.py",
        "if symmetric else p\n",
        "if symmetric else p.real\n",
        ("tests/test_classical.py", "-k", "charpoly_lax_spectrum_matches_eig_oracle"),
    ),
    Mutant(
        "partial-momenta-real",
        "classical.py",
        "residuals, p_hp=p))",
        "residuals, p_hp=p.real))",
        ("tests/test_classical.py", "-k", "partial_items"),
    ),
    Mutant(
        "mp-momentum-drops-imaginary",
        "classical.py",
        "ctx.mpc(float(value.real), float(value.imag))",
        "ctx.mpc(float(value.real), float(value.real))",
        ("tests/test_classical.py", "-k", "charpoly_lax_spectrum or shifted_momenta"),
    ),
    Mutant(
        "mp-momentum-without-convert",
        "classical.py",
        "return ctx.convert(value)",
        "return value",
        ("tests/test_classical.py", "-k", "charpoly or minors"),
        equivalent=(
            "every product with a momentum goes through ctx.fdot, which converts "
            "exactly; the negation -p is exact, and ctx.matrix converts"
        ),
    ),
    # -- command-line input and output paths -------------------------------------
    Mutant(
        "late-segment-check",
        "kz.py",
        "    for a, b in segments:\n        _check_segment(a, b, eps)\n",
        "",
        ("tests/test_kz.py::test_collision_crossing_rejected",),
    ),
    Mutant(
        "plot-data-unchecked",
        "cli.py",
        "    if args.plot_data:\n        check_writable(args.plot_data)\n",
        "",
        ("tests/test_config_cli.py", "-k", "exit_3"),
    ),
    Mutant(
        "report-output-unchecked",
        "suites.py",
        "    if config.output:\n        check_writable(config.output)\n",
        "",
        ("tests/test_config_cli.py", "-k", "exit_3"),
    ),
    Mutant(
        "spectrum-out-unchecked",
        "cli.py",
        "    if args.out:\n        check_writable(args.out)\n",
        "",
        ("tests/test_config_cli.py", "-k", "exit_3"),
    ),
    Mutant(
        "weight-species-unchecked",
        "cli.py",
        "if weight.N != params.N:",
        "if False:",
        ("tests/test_config_cli.py", "-k", "exit_3"),
    ),
    Mutant(
        "argparse-exit-2",
        "cli.py",
        'raise ConfigError(f"{self.prog}: {message}")',
        "super().error(message)",
        ("tests/test_config_cli.py", "-k", "exit_3"),
    ),
    Mutant(
        "jobs-unchecked",
        "suites.py",
        "if jobs != 1:",
        "if False:",
        ("tests/test_tracing_contract.py",),
    ),
    # -- the DOP853 stepper and the block norms ----------------------------------
    Mutant(
        "stepper-error-exponent-1/7",
        "kz.py",
        "0.9 * error_norm ** (-1 / 8)",
        "0.9 * error_norm ** (-1 / 7)",
        ("tests/test_kz.py", "-k", "stepper_takes_the_steps"),
    ),
    Mutant(
        "stepper-e3-weight-0.1",
        "kz.py",
        "(e5 + 0.01 * e3)",
        "(e5 + 0.1 * e3)",
        ("tests/test_kz.py", "-k", "stepper_takes_the_steps"),
    ),
    Mutant(
        "stepper-grows-after-rejection",
        "kz.py",
        "min(1.0 if rejected else 10.0, factor)",
        "min(10.0, factor)",
        ("tests/test_kz.py", "-k", "stepper_takes_the_steps"),
    ),
    Mutant(
        "stepper-stage-row-off-by-one",
        "kz.py",
        "_stage_state(K, _A[s, :s], h, y)",
        "_stage_state(K, _A[s - 1, :s], h, y)",
        ("tests/test_kz.py", "-k", "stepper_takes_the_steps"),
    ),
    Mutant(
        "block-norms-reverse-order",
        "kz.py",
        "        for block in chunk:\n",
        "        for block in chunk[::-1]:\n",
        ("tests/test_row_split.py", "-k", "block_norms"),
    ),
    # -- float64 operator work ---------------------------------------------------
    Mutant(
        "t-triple-keeps-l",
        "identities.py",
        "op.rmatvec(total[i] - slid[i, l])",
        "op.rmatvec(total[i])",
        ("tests/test_identities.py", "-k", "t_triple_row"),
    ),
    Mutant(
        "constant-rmatvec-signed-swap-sign",
        "kz.py",
        "out -= coeff * (sign * c)",
        "out += coeff * (sign * c)",
        ("tests/test_kz.py", "-k", "constant_rmatvec"),
    ),
    Mutant(
        "covariant-row-h-on-omega",
        "kz.py",
        "2.0 * hbar * _constant_rmatvec(H, w[0])",
        "2.0 * hbar * _constant_rmatvec(H, 1.0)",
        ("tests/test_kz.py", "-k", "covariant_row"),
    ),
    Mutant(
        "curvature-skips-every-pair",
        "kz.py",
        "if a - b != 0.0:",
        "if False:",
        ("tests/test_kz.py", "-k", "flatness"),
    ),
    Mutant(
        "curvature-without-hbar",
        "kz.py",
        "skew.append((p, perm, hbar * (a - b)))",
        "skew.append((p, perm, a - b))",
        ("tests/test_kz.py", "-k", "flatness"),
    ),
    Mutant(
        "curvature-b-minus-a",
        "kz.py",
        "hbar * (a - b)",
        "hbar * (b - a)",
        ("tests/test_kz.py", "-k", "flatness"),
    ),
    # equivalent while the curvature subtracted the two derivative products;
    # the odd-p' test of the curvature rows now tells them apart
    Mutant(
        "curvature-derivatives-swapped",
        "kz.py",
        "((_, perm, a),) = conn.derivative(i, j).terms\n"
        "        ((_, _, b),) = conn.derivative(j, i).terms",
        "((_, perm, a),) = conn.derivative(j, i).terms\n"
        "        ((_, _, b),) = conn.derivative(i, j).terms",
        ("tests/test_kz.py", "-k", "flatness"),
    ),
    Mutant(
        "csr-rows-short-row-mask-dropped",
        "operators.py",
        "masked = any(len(op.terms) < width or any(",
        "masked = any(any(",
        ("tests/test_operators.py", "-k", "csr_rows"),
    ),
    Mutant(
        "csr-rows-swap-coefficients-zero",
        "operators.py",
        '[t[2] if t[0] == "swap" else 0.0 for t in op.terms]',
        "[0.0 for t in op.terms]",
        ("tests/test_operators.py", "-k", "csr_rows"),
    ),
    Mutant(
        "dd-residual-unpermuted-halves",
        "classical.py",
        "tuple(h[perm] for h in halves)",
        "halves",
        ("tests/test_classical.py", "-k", "dd_residual"),
    ),
    Mutant(
        "dd-residual-swapped-halves",
        "classical.py",
        "tuple(h[perm] for h in halves)",
        "tuple(h[perm] for h in halves[::-1])",
        ("tests/test_classical.py", "-k", "dd_residual"),
    ),
]


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "out")
    # the tracing contract test imports perfbench/tracing.py
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' (the old text does not occur exactly once) or 'error N'."""
    with tempfile.TemporaryDirectory(prefix="kzcal-mutant-") as tmp:
        _copy_tree(tmp)
        path = os.path.join(tmp, "src", "kzcal", mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return "stale"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # 1: some test failed; 0: all passed; 2 to 5 (interrupted, a collection
        # or usage error, nothing collected) say nothing about the mutant
        return {0: "survived", 1: "killed"}.get(proc.returncode, f"error {proc.returncode}")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in chosen:
        started = time.perf_counter()
        outcome = run(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        ok = outcome == expected
        bad += not ok
        note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        flag = "" if ok else "  UNEXPECTED"
        print(f"{mutant.name:<36} {outcome:<8} {time.perf_counter() - started:5.1f}s{flag}{note}")
    print(f"{len(chosen) - bad} of {len(chosen)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
