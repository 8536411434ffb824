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
        "mp-momentum-rounded-to-double",
        "classical.py",
        "A[i][i] = ctx.convert(p)",
        "A[i][i] = ctx.convert(complex(p))",
        ("tests/test_classical.py", "-k", "charpoly or minors"),
    ),
    Mutant(
        "mp-momentum-drops-imaginary",
        "classical.py",
        "A[i][i] = ctx.convert(p)",
        "A[i][i] = ctx.convert(p.real)",
        ("tests/test_classical.py", "-k", "complex_trig_momenta"),
    ),
    Mutant(
        "mp-momentum-without-convert",
        "classical.py",
        "A[i][i] = ctx.convert(p)",
        "A[i][i] = p",
        ("tests/test_classical.py", "-k", "charpoly or minors"),
        equivalent=(
            "every product with a momentum goes through ctx.fdot, which converts "
            "exactly; the negation -p is exact, and ctx.matrix converts"
        ),
    ),
    # -- the per-sector constants and the simple targets of the Lax check -------
    Mutant(
        "simple-target-sign-flipped",
        "classical.py",
        "mu = np.array([complex(-q[0] / q[1])])",
        "mu = np.array([complex(q[0] / q[1])])",
        ("tests/test_classical.py", "-k", "simple_targets"),
    ),
    Mutant(
        "simple-target-gap-test-dropped",
        "classical.py",
        "        if not np.all(np.abs(mu) <= 1e-3 * gap):",
        "        if m > 1 and not np.all(np.abs(mu) <= 1e-3 * gap):",
        ("tests/test_classical.py", "-k", "simple_target_falls_back"),
    ),
    # a cache whose key leaves out one input of the Lax entries: the first
    # entries made serve every later call that differs only there
    Mutant(
        "lax-cache-key-without-dps",
        "classical.py",
        "@functools.lru_cache(maxsize=64)\ndef _lax_offdiagonal(",
        "@lambda f: lambda params, dps, seen={}: seen.setdefault(params, f(params, dps))\n"
        "def _lax_offdiagonal(",
        ("tests/test_classical.py", "-k", "not_shared"),
    ),
    Mutant(
        "lax-cache-key-without-kappa",
        "classical.py",
        "@functools.lru_cache(maxsize=64)\ndef _lax_offdiagonal(",
        "@lambda f: lambda params, dps, seen={}: seen.setdefault(\n"
        "    (params.kind, params.gamma, params.x, dps), f(params, dps))\n"
        "def _lax_offdiagonal(",
        ("tests/test_classical.py", "-k", "not_shared"),
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
        "core.py",
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
        "tableau-coefficient-last-digit",
        "kz.py",
        "27.59209969944671,",
        "27.59209969944672,",
        ("tests/test_kz.py", "-k", "tableau_is_pinned"),
    ),
    Mutant(
        "stepper-e3-e5-swapped",
        "kz.py",
        "zip(errors, (_E5, _E3))",
        "zip(errors, (_E3, _E5))",
        ("tests/test_kz.py", "-k", "stepper_takes_the_steps"),
    ),
    Mutant(
        "arpack-import-deleted",
        "classical.py",
        "    from scipy.sparse.linalg import ArpackError, eigs\n",
        "",
        ("tests/test_classical.py", "-k", "arpack_failure"),
    ),
    Mutant(
        "arpack-imported-at-start-up",
        "classical.py",
        "import numpy as np\n",
        "import numpy as np\nimport scipy.sparse.linalg\n",
        ("tests/test_config_cli.py", "-k", "heavy_scipy_modules"),
    ),
    Mutant(
        "scipy-sparse-package-at-start-up",
        "operators.py",
        "_sparsetools = _load_sparsetools()\n",
        "from scipy.sparse import _sparsetools\n",
        ("tests/test_config_cli.py", "-k", "heavy_scipy_modules"),
    ),
    Mutant(
        "numpy-random-loaded-in-the-run",
        "suites.py",
        "import numpy.random  # noqa: F401\n",
        "",
        ("tests/test_config_cli.py", "-k", "heavy_scipy_modules"),
    ),
    Mutant(
        "dense-combination-diag-last",
        "operators.py",
        "            cols = np.hstack([_unit_rows(dim)[:dim, None], cols])\n"
        "            val = np.hstack([diag[:, None], val])\n",
        "            cols = np.hstack([cols, _unit_rows(dim)[:dim, None]])\n"
        "            val = np.hstack([val, diag[:, None]])\n",
        ("tests/test_classical.py", "-k", "csr_sum"),
    ),
    Mutant(
        "block-norms-reverse-order",
        "kz.py",
        "        for block in chunk:\n",
        "        for block in chunk[::-1]:\n",
        ("tests/test_row_split.py", "-k", "block_norms"),
    ),
    # -- whole-sector identity passes, the float64 Psi derivatives, U by ranges --
    Mutant(
        "twist-sums-reversed-pair-order",
        "identities.py",
        "    i, j = _tuples(basis.n, 2)\n    kernels",
        "    i, j = _tuples(basis.n, 2)[:, ::-1]\n    kernels",
        ("tests/test_identities.py", "-k", "match_the_oracles or match_the_loops"),
    ),
    Mutant(
        "twist-sums-reversed-triple-order",
        "identities.py",
        "    i, j, k = _tuples(basis.n, 3)\n",
        "    i, j, k = _tuples(basis.n, 3)[:, ::-1]\n",
        ("tests/test_identities.py", "-k", "match_the_oracles or match_the_loops"),
    ),
    Mutant(
        "state-block-end-one-short",
        "identities.py",
        "basis.states[lo : lo + rows].T",
        "basis.states[lo : lo + rows - 1].T",
        ("tests/test_identities.py", "-k", "split_state_blocks"),
    ),
    Mutant(
        "real-path-on-a-partly-complex-state",
        "kz.py",
        "if not np.any(v.imag):",
        "if not np.all(v.imag):",
        ("tests/test_quantum.py", "-k", "imaginary_part"),
    ),
    Mutant(
        "pairing-sums-the-real-power",
        "kz.py",
        "omega_pairing(StateVector(state.weight, uk))",
        "complex(np.sum(uk))",
        ("tests/test_quantum.py", "-k", "real_state"),
    ),
    Mutant(
        "commutator-u-parts-swapped",
        "kz.py",
        "Ur[lo:hi, 2 * a + p] = column[:, 0]",
        "Ur[lo:hi, 2 * a + 1 - p] = column[:, 0]",
        ("tests/test_row_split.py", "-k", "commutator_rows"),
    ),
    # -- the identity sums -------------------------------------------------------
    Mutant(
        "sum-residual-drops-expected",
        "identities.py",
        "np.abs(total - expected)",
        "np.abs(total)",
        ("tests/test_identities.py", "-k", "trig_identities"),
    ),
    Mutant(
        "sum-residual-drops-term-scale",
        "identities.py",
        "max(biggest, abs(expected), 1e-300)",
        "max(abs(expected), 1e-300)",
        ("tests/test_identities.py", "-k", "scalar_identities or twist_sums"),
    ),
    Mutant(
        "sum-residual-reversed",
        "identities.py",
        "np.cumsum(block, axis=0)[-1]",
        "np.cumsum(block[::-1], axis=0)[-1]",
        ("tests/test_identities.py", "-k", "match_the_loops"),
    ),
    Mutant(
        "tolerances-object-unchecked",
        "config.py",
        '    _require(given is None or isinstance(given, dict), "tolerances", "must be an object")\n',
        "",
        ("tests/test_config_cli.py", "-k", "bad_tolerance"),
    ),
    Mutant(
        "strict-read-as-truthiness",
        "config.py",
        '_require(isinstance(strict, bool), "instance.explicit.strict", "must be true or false")',
        "strict = bool(strict)",
        ("tests/test_config_cli.py", "-k", "exit_3"),
    ),
    Mutant(
        "site-counts-unchecked",
        "core.py",
        '        object.__setattr__(self, "n", _integer(self.n, InvalidParamsError, "n"))\n'
        '        object.__setattr__(self, "N", _integer(self.N, InvalidParamsError, "N"))\n',
        "",
        ("tests/test_config_cli.py", "-k", "exit_3"),
    ),
    # -- float64 operator work ---------------------------------------------------
    Mutant(
        "t-triple-keeps-l",
        "identities.py",
        "rest = slid.sum(axis=0) - slid",
        "rest = slid.sum(axis=0) + 0 * slid",
        ("tests/test_identities.py", "-k", "t_triple_row"),
    ),
    Mutant(
        "constant-rmatvec-signed-swap-sign",
        "kz.py",
        "part -= coeff * (sign[lo:hi] * c)",
        "part += coeff * (sign[lo:hi] * c)",
        ("tests/test_kz.py", "-k", "constant_rmatvec or constant_rows"),
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
        "zip(pairs, commutator_norms(conn, v))",
        "zip(pairs, commutator_norms(conn, v)[:0])",
        ("tests/test_kz.py", "-k", "flatness"),
    ),
    Mutant(
        "curvature-without-hbar",
        "kz.py",
        "abs(params.hbar * (a - b))",
        "abs(a - b)",
        ("tests/test_kz.py", "-k", "cached_h_actions"),
    ),
    Mutant(
        "curvature-b-minus-a",
        "kz.py",
        "hbar * (a - b)",
        "hbar * (b - a)",
        ("tests/test_kz.py", "-k", "flatness or cached_h_actions"),
        equivalent="the residual adds |hbar (a - b)|, so the sign cannot change it",
    ),
    Mutant(
        "curvature-derivatives-swapped",
        "kz.py",
        "((_, _, a),) = conn.derivative(i, j).terms\n"
        "        ((_, _, b),) = conn.derivative(j, i).terms",
        "((_, _, a),) = conn.derivative(j, i).terms\n"
        "        ((_, _, b),) = conn.derivative(i, j).terms",
        ("tests/test_kz.py", "-k", "flatness or cached_h_actions"),
        equivalent="the residual adds |hbar (a - b)|, so the sign cannot change it",
    ),
    Mutant(
        "flatness-drops-skew",
        "kz.py",
        "residuals.append(norm + abs(params.hbar * (a - b)))",
        "residuals.append(norm)",
        ("tests/test_kz.py", "-k", "cached_h_actions"),
    ),
    # -- the row kernel and the site tables --------------------------------------
    Mutant(
        "t-term-orientation-dropped",
        "kernel.py",
        "coeff if i0 < j0 else -coeff",
        "coeff",
        ("tests/test_operators.py",),
    ),
    Mutant(
        "row-kernel-sign-reversed",
        "operators.py",
        "np.subtract(_unit_rows(self.dim)[lo:hi, None], self.cols[lo:hi], out=out)",
        "np.subtract(self.cols[lo:hi], _unit_rows(self.dim)[lo:hi, None], out=out)",
        ("tests/test_row_split.py", "-k", "term_sums"),
    ),
    Mutant(
        "row-kernel-diag-after-swaps",
        "operators.py",
        "        if self.diags:  # one entry per row: 0 + diag x, never -0\n"
        "            self._diagonal_rows(x, lo, hi, out)\n"
        "        if not self.width:\n"
        "            return\n"
        "        for c in range(lo, hi, block):\n"
        "            e = min(c + block, hi)\n"
        "            ind = cols = self.cols[c:e]\n"
        "            if self.flip is not None:\n"
        "                np.multiply(self.signs(c, e, sign[: e - c]), scale, out=slot[: e - c])\n"
        "                if self.paired:\n"
        "                    ind = idx[: e - c]\n"
        "                    ind[:, 0::2] = cols\n"
        "                    ind[:, 1::2] = cols\n"
        "            # the kernels take 2-d arrays by their buffers: an input that is\n"
        "            # not C-contiguous is copied, so out has to be\n"
        "            y = out[c - lo : e - lo]\n"
        "            if m == 1:\n"
        "                _sparsetools.csr_matvec(e - c, self.dim, self.indptr, ind, data, x, y)\n"
        "            else:\n"
        "                _sparsetools.csr_matvecs(e - c, self.dim, m, self.indptr, ind, data, x, y)\n",
        "        for c in range(lo, hi, block):\n"
        "            e = min(c + block, hi)\n"
        "            ind = cols = self.cols[c:e]\n"
        "            if self.flip is not None:\n"
        "                np.multiply(self.signs(c, e, sign[: e - c]), scale, out=slot[: e - c])\n"
        "                if self.paired:\n"
        "                    ind = idx[: e - c]\n"
        "                    ind[:, 0::2] = cols\n"
        "                    ind[:, 1::2] = cols\n"
        "            # the kernels take 2-d arrays by their buffers: an input that is\n"
        "            # not C-contiguous is copied, so out has to be\n"
        "            y = out[c - lo : e - lo]\n"
        "            if m == 1:\n"
        "                _sparsetools.csr_matvec(e - c, self.dim, self.indptr, ind, data, x, y)\n"
        "            else:\n"
        "                _sparsetools.csr_matvecs(e - c, self.dim, m, self.indptr, ind, data, x, y)\n"
        "        if self.diags:  # after the swaps\n"
        "            self._diagonal_rows(x, lo, hi, out)\n",
        ("tests/test_row_split.py", "-k", "term_sums"),
    ),
    Mutant(
        "row-kernel-mixed-layout-signs-everywhere",
        "operators.py",
        "        if self.plain is not None:\n"
        "            sign[:, self.plain] = 1\n",
        "",
        ("tests/test_row_split.py", "-k", "term_sums"),
    ),
    Mutant(
        "site-table-columns-shifted",
        "core.py",
        "self.site_table(i)[:, j - 1]",
        "self.site_table(i)[:, j - 2]",
        ("tests/test_row_split.py", "-k", "term_sums"),
    ),
    Mutant(
        "row-kernel-block-end-off-by-one",
        "operators.py",
        "e = min(c + block, hi)",
        "e = min(c + block - 1, hi)",
        ("tests/test_row_split.py", "-k", "term_sums"),
    ),
    Mutant(
        "rmatvec-keeps-signed-sign",
        "operators.py",
        "scale = self.coeffs * self.flip if transpose else self.coeffs",
        "scale = self.coeffs",
        ("tests/test_row_split.py", "-k", "term_sums"),
    ),
    Mutant(
        "tswap-sign-unchecked",
        "operators.py",
        "        if signed:\n            basis = get_basis(self.weight)",
        "        if False:\n            basis = get_basis(self.weight)",
        ("tests/test_operators.py", "-k", "signed_swap_signs"),
    ),
    # -- the lexicographic rank of the basis states ---------------------------
    Mutant(
        "rank-radix-weights-one-species-off",
        "core.py",
        "math.prod(radix[c + 1:])",
        "math.prod(radix[c:])",
        ("tests/test_core.py", "-k", "roundtrip"),
    ),
    Mutant(
        "rank-recurrence-counts-ones",
        "core.py",
        "mult[p] + mult[p + weights[c]]",
        "mult[p] + 1",
        ("tests/test_core.py", "-k", "roundtrip"),
    ),
    Mutant(
        "rank-offsets-inclusive-cumsum",
        "core.py",
        "return col, np.cumsum(steps, axis=0) - steps",
        "return col, np.cumsum(steps, axis=0)",
        ("tests/test_core.py", "-k", "roundtrip"),
    ),
    Mutant(
        "adjacent-shift-sign-flipped",
        "core.py",
        "+ self._table[here + b] + self._table[here + self._step[b] + a]",
        "- self._table[here + b] + self._table[here + self._step[b] + a]",
        ("tests/test_core.py", "-k", "search_oracle"),
    ),
    Mutant(
        "adjacent-shift-old-prefix",
        "core.py",
        "self._table[here + self._step[b] + a]",
        "self._table[here + self._step[a] + a]",
        ("tests/test_core.py", "-k", "search_oracle"),
    ),
    Mutant(
        "rank-membership-accepts-dim",
        "core.py",
        "np.any(ranks >= self.dim)",
        "np.any(ranks > self.dim)",
        ("tests/test_core.py", "-k", "roundtrip"),
    ),
    Mutant(
        "rank-row-length-unchecked",
        "core.py",
        "np.shape(states)[1:] != (self.n,) or ",
        "",
        ("tests/test_core.py", "-k", "roundtrip"),
    ),
    Mutant(
        "rank-sentinel-below-dim",
        "core.py",
        "table = np.full((len(room), K + 1), dim, dtype=np.int64)",
        "table = np.full((len(room), K + 1), dim - 1, dtype=np.int64)",
        ("tests/test_core.py", "-k", "roundtrip"),
    ),
    Mutant(
        "rank-letters-wrapped",
        "core.py",
        'col = np.take(self._column, states.T, mode="clip")',
        'col = np.take(self._column, states.T, mode="wrap")',
        ("tests/test_core.py", "-k", "roundtrip"),
    ),
    Mutant(
        "letters-stored-as-int8",
        "core.py",
        "(occupied + 1).astype(np.min_scalar_type(-weight.N - 1))",
        "(occupied + 1).astype(np.int8)",
        ("tests/test_config_cli.py", "-k", "above_127"),
    ),
    Mutant(
        "t-case-cycle-inverted",
        "identities.py",
        "cycled = swapped[kil[:, None], swapped[kij, lo:hi]]",
        "cycled = swapped[kij[:, None], swapped[kil, lo:hi]]",
        ("tests/test_identities.py", "-k", "t_case"),
    ),
    Mutant(
        "tswap-sign-by-identity-only",
        "core.py",
        "return np.array_equal(sign, np.sign(np.arange(self.dim) - perm))",
        "return False",
        ("tests/test_operators.py", "-k", "signed_swap_signs"),
    ),
    Mutant(
        "materialize-keeps-zero-signed-entries",
        "operators.py",
        "keep[:, signed] = sign != 0",
        "keep[:, signed] = sign == sign",
        ("tests/test_operators.py", "-k", "materialize or csr_rows"),
    ),
    Mutant(
        "materialize-diag-after-entries",
        "operators.py",
        "            cols = np.hstack([rows, cols])\n"
        "            val = np.hstack([diag[:, None], val])\n"
        "            if keep is not None:\n"
        "                keep = np.hstack([np.ones(rows.shape, dtype=bool), keep])\n",
        "            cols = np.hstack([cols, rows])\n"
        "            val = np.hstack([val, diag[:, None]])\n"
        "            if keep is not None:\n"
        "                keep = np.hstack([keep, np.ones(rows.shape, dtype=bool)])\n",
        ("tests/test_operators.py", "-k", "materialize or csr_rows"),
    ),
    Mutant(
        "materialize-sorts-the-site-table",
        "operators.py",
        "cols.flatten()",
        "cols.ravel()",
        ("tests/test_operators.py", "-k", "materialize_matches_coo"),
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
    # -- per-state data only in the basis, and only for the run --------------
    Mutant(
        "twist-table-read-at-next-site",
        "kernel.py",
        "twist_term(params, i0)",
        "twist_term(params, (i0 + 1) % basis.n)",
        ("tests/test_sector_memory.py", "-k", "letter_diagonals"),
    ),
    Mutant(
        "diag-sites-summed-in-reverse-order",
        "operators.py",
        "        for tables, sites in self.diags:\n",
        "        for tables, sites in ((t[::-1], s[::-1]) for t, s in self.diags):\n",
        ("tests/test_sector_memory.py", "-k", "letter_diagonals"),
    ),
    Mutant(
        "weight-operator-sites-reversed",
        "operators.py",
        "diag_term(is_a, range(basis.n))",
        "diag_term(is_a, range(basis.n)[::-1])",
        ("tests/test_sector_memory.py", "-k", "letter_diagonals"),
        equivalent=(
            "every site of M_a reads the same 0/1 table, so its sums are small "
            "integers, exact in any order; reversing the shared sum is the entry above"
        ),
    ),
    Mutant(
        "one-table-diagonal-reads-site-0",
        "operators.py",
        "            table, site = self.lookup\n            letters",
        "            table, site = self.lookup[0], 0\n            letters",
        ("tests/test_row_split.py", "-k", "term_sums"),
    ),
    Mutant(
        "signed-swap-sign-reversed",
        "core.py",
        "np.sign(self.states[:, i] - self.states[:, j])",
        "np.sign(self.states[:, j] - self.states[:, i])",
        ("tests/test_kz.py", "tests/test_quantum.py"),
    ),
    # -- per-letter covector rows, T maps from the row kernels, the stepper ----
    Mutant(
        "constant-row-gathered-at-next-site",
        "kz.py",
        "row.take(kernel.letters[:, lookup[1]])",
        "row.take(kernel.letters[:, (lookup[1] + 1) % op.weight.n])",
        ("tests/test_kz.py", "-k", "constant_rows"),
    ),
    Mutant(
        "constant-row-starts-at-the-table-product",
        "kz.py",
        "            row += lookup[0] * c\n",
        "            row = lookup[0] * c\n",
        ("tests/test_kz.py", "-k", "plus_zero_start"),
    ),
    Mutant(
        "t-map-value-without-sign",
        "identities.py",
        "val[i0, j0] = kernel.coeffs[0] * sign",
        "val[i0, j0] = kernel.coeffs[0]",
        ("tests/test_identities.py", "-k", "t_maps or t_case"),
    ),
    Mutant(
        "t-map-ignores-a-diag-term",
        "identities.py",
        "if kernel.diags or kernel.width != 1:",
        "if kernel.width != 1:",
        ("tests/test_identities.py", "-k", "two_entries_in_a_row"),
    ),
    Mutant(
        "rhs-divides-the-float-view",
        "operators.py",
        "np.divide(out[lo:hi], divisor, out=out[lo:hi])",
        "np.divide(y[lo:hi], divisor, out=y[lo:hi])",
        ("tests/test_row_split.py", "-k", "term_sums"),
    ),
    Mutant(
        "stage-state-scaled-before-the-last-term",
        "kz.py",
        "        _weighted_rows(K, coeffs, lo, hi, part, np.empty_like(part))\n"
        "        part *= h\n",
        "        _weighted_rows(K, coeffs[:-1], lo, hi, part, np.empty_like(part))\n"
        "        part *= h\n"
        "        part += K[len(coeffs) - 1][lo:hi] * coeffs[-1]\n",
        ("tests/test_row_split.py", "-k", "stage_states"),
    ),
    Mutant(
        "bases-released-before-the-report",
        "suites.py",
        "        if config.output:\n"
        "            write_report(report, config.output, config.format)\n"
        "    finally:\n"
        "        release_bases()\n"
        "        _t_maps.cache_clear()\n",
        "        release_bases()\n"
        "        _t_maps.cache_clear()\n"
        "        if config.output:\n"
        "            write_report(report, config.output, config.format)\n"
        "    finally:\n"
        "        pass\n",
        ("tests/test_sector_memory.py", "-k", "owns_its_bases or failing_run"),
    ),
    Mutant(
        "bases-never-released",
        "suites.py",
        "    finally:\n        release_bases()\n        _t_maps.cache_clear()\n",
        "    finally:\n        pass\n",
        ("tests/test_sector_memory.py", "-k", "owns_its_bases"),
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
