"""Span tracing wrapped around kzcal's public functions from outside the package.

Nothing in kzcal is edited.  ``install`` replaces each traced function by a
wrapper in every kzcal namespace that holds it (``suites`` and the other
modules import functions by name, so the name has to be replaced where it is
looked up) and replaces ``TermOperator`` methods on the class.  The calls
kzcal makes into mpmath (``mpmath.eig``) and into the dense eigensolvers
(``numpy.linalg.eigh``, ``scipy.linalg.eig``, called only by
``kzcal.classical``) are wrapped on their modules.

A span is (name, start, end, parent, run id).  Spans stay in memory and are
written out once, after the timed work.  A span's self time is its duration
minus the durations of its direct children; in one thread the children
never overlap, so that is exactly the part of the interval no child covers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name) of every traced kzcal function
FUNCTIONS = [
    ("config", "load_config", "config.load"),
    ("suites", "build_instances", "instances.build"),
    ("suites", "run_suites", "suites.run"),
    ("suites", "write_report", "suites.write_report"),
    ("core", "get_basis", "core.get_basis"),
    ("operators", "gaudin_hamiltonian", "operators.build"),
    ("operators", "gaudin_derivative", "operators.build"),
    ("operators", "t_operator", "operators.build"),
    ("operators", "permutation_operator", "operators.build"),
    ("operators", "twist_operator", "operators.build"),
    ("operators", "weight_operator", "operators.build"),
    ("kz", "integrate_path", "kz.integrate_path"),
    ("kz", "covariant_row", "kz.covariant_row"),
    ("kz", "flatness_residual", "kz.flatness"),
    ("quantum", "h2_covector_residual", "quantum.covector"),
    ("quantum", "h3_covector_residual", "quantum.covector"),
    ("quantum", "momentum_covector_residual", "quantum.covector"),
    ("quantum", "pde_residual_on_solution", "quantum.pde"),
    ("classical", "gaudin_joint_spectrum", "classical.joint_spectrum"),
    ("classical", "qc_check", "classical.qc_check"),
    ("identities", "verify_t_case_tables", "identities.t_case_tables"),
    ("identities", "verify_rational_scalar_identities", "identities.scalar"),
    ("identities", "verify_twist_sum_identities", "identities.scalar"),
    ("identities", "verify_omega_weight_identity", "identities.scalar"),
    ("identities", "verify_trig_identities", "identities.scalar"),
]

# (per-layer metric, span name, "s" for self time, "total" for inclusive time
# or "calls"); classical.joint_spectrum.s is inclusive, so that it splits into
# dense_diag + materialize + refine (+ the small basis and build children)
SPAN_METRICS = [
    ("classical.lax_eig_mp.s", "classical.lax_eig_mp", "s"),
    ("classical.lax_eig_mp.calls", "classical.lax_eig_mp", "calls"),
    ("classical.qc_check.s", "classical.qc_check", "s"),
    ("classical.qc_check.calls", "classical.qc_check", "calls"),
    ("classical.joint_spectrum.s", "classical.joint_spectrum", "total"),
    ("classical.joint_spectrum.calls", "classical.joint_spectrum", "calls"),
    ("classical.dense_diag.s", "classical.dense_diag", "s"),
    ("classical.refine.s", "classical.joint_spectrum", "s"),
    ("operators.matvec.s", "operators.matvec", "s"),
    ("operators.matvec.calls", "operators.matvec", "calls"),
    ("operators.rmatvec.s", "operators.rmatvec", "s"),
    ("operators.rmatvec.calls", "operators.rmatvec", "calls"),
    ("operators.build.s", "operators.build", "s"),
    ("operators.build.calls", "operators.build", "calls"),
    ("operators.materialize.s", "operators.materialize", "s"),
    ("operators.materialize.calls", "operators.materialize", "calls"),
    ("core.get_basis.s", "core.get_basis", "s"),
    ("core.get_basis.calls", "core.get_basis", "calls"),
    ("core.swap_table.s", "core.swap_table", "s"),
    ("core.swap_table.calls", "core.swap_table", "calls"),
    ("kz.integrate_path.s", "kz.integrate_path", "s"),
    ("kz.integrate_path.calls", "kz.integrate_path", "calls"),
    ("kz.covariant_row.s", "kz.covariant_row", "s"),
    ("kz.covariant_row.calls", "kz.covariant_row", "calls"),
    ("kz.flatness.s", "kz.flatness", "s"),
    ("quantum.covector.s", "quantum.covector", "s"),
    ("quantum.pde.s", "quantum.pde", "s"),
    ("identities.t_case_tables.s", "identities.t_case_tables", "s"),
    ("identities.t_case_tables.calls", "identities.t_case_tables", "calls"),
    ("identities.scalar.s", "identities.scalar", "s"),
    ("suites.self.s", "suites.run", "s"),
    ("suites.write_report.s", "suites.write_report", "s"),
    ("config.load.s", "config.load", "s"),
    ("instances.build.s", "instances.build", "s"),
]

# counters recorded at the same boundaries; all repeat exactly for a fixed seed
COUNTERS = [
    "classical.items",
    "classical.degenerate_errors",
    "operators.term_apps",
    "operators.bytes_computed",
    "operators.materialize.nnz",
    "core.basis_states",
    "kz.rhs_evals",
    "kz.ivp_failures",
]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = "setup"
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None, on_error=None):
        """Wrapper recording a span around fn, then after(counts, args, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def count(self, fn, after):
        """Wrapper that only updates counters (no span, so no self-time split)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self.counts, args, result)
            return result

        return counted

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: self/inclusive time and calls per span name, plus counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[k]
            calls[name] += 1
        pick = {"s": self_time, "total": total, "calls": calls}
        out = {metric: float(pick[kind][span]) for metric, span, kind in SPAN_METRICS}
        out.update({name: float(self.counts[name]) for name in COUNTERS})
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, run_id]) + "\n")


def _term_cost(counts, args, result):
    """Terms applied and bytes touched by one TermOperator matvec (computed, not measured).

    Per term: the term's index or diagonal table (plus the sign table of a
    signed swap) is read once, the input vector is read once and the output
    vector is read and written once.
    """
    op, v = args[0], args[1]
    tables = 0
    for term in op.terms:
        tables += term[1].nbytes
        if term[0] == "tswap":
            tables += term[2].nbytes
    counts["operators.term_apps"] += len(op.terms)
    counts["operators.bytes_computed"] += tables + 3 * len(op.terms) * v.nbytes


def install(tracer: Tracer) -> None:
    """Patch kzcal (already imported) so every traced call records into tracer."""
    import mpmath
    import numpy.linalg
    import scipy.linalg

    import kzcal
    from kzcal import classical, config, core, identities, kz, operators, quantum, suites
    from kzcal.errors import DegenerateSpectrumError

    modules = {
        "config": config, "suites": suites, "core": core, "operators": operators,
        "kz": kz, "quantum": quantum, "classical": classical, "identities": identities,
    }
    namespaces = [kzcal, *modules.values()]

    def replace_everywhere(original, wrapped):
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)

    def on_joint_spectrum(counts, args, result):
        counts["classical.items"] += len(result)

    def on_joint_spectrum_error(counts, exc):
        if isinstance(exc, DegenerateSpectrumError):
            counts["classical.degenerate_errors"] += 1

    def on_materialize(counts, args, result):
        counts["operators.materialize.nnz"] += result.nnz

    def on_basis(counts, args, result):
        counts["core.basis_states"] += args[0].dim

    def on_ivp(counts, args, result):
        counts["kz.rhs_evals"] += result.nfev
        counts["kz.ivp_failures"] += 0 if result.success else 1

    for module, attr, name in FUNCTIONS:
        original = getattr(modules[module], attr)
        after = on_error = None
        if name == "classical.joint_spectrum":
            after, on_error = on_joint_spectrum, on_joint_spectrum_error
        replace_everywhere(original, tracer.wrap(name, original, after, on_error))

    term_op = operators.TermOperator
    term_op.matvec = tracer.wrap("operators.matvec", term_op.matvec, _term_cost)
    term_op.rmatvec = tracer.wrap("operators.rmatvec", term_op.rmatvec, _term_cost)
    term_op.materialize = tracer.wrap("operators.materialize", term_op.materialize, on_materialize)
    basis_cls = core.WeightBasis
    basis_cls.swap_table = tracer.wrap("core.swap_table", basis_cls.swap_table)
    basis_cls.__init__ = tracer.count(basis_cls.__init__, on_basis)
    kz.solve_ivp = tracer.count(kz.solve_ivp, on_ivp)

    mpmath.eig = tracer.wrap("classical.lax_eig_mp", mpmath.eig)
    numpy.linalg.eigh = tracer.wrap("classical.dense_diag", numpy.linalg.eigh)
    scipy.linalg.eig = tracer.wrap("classical.dense_diag", scipy.linalg.eig)
