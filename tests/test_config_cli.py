import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kzcal import cli, kz
from kzcal.config import DEFAULT_TOLERANCES, SUITE_NAMES, load_config, validate_config
from kzcal.core import WeightVector, get_basis
from kzcal.errors import ConfigError, DegenerateSpectrumError
from kzcal.suites import build_instances, emit_plot_data, run_suites

MINIMAL = {
    "suites": ["identities"],
    "seed": 1,
    "instance": {"random": {"n": 4, "N": 2, "count": 3}},
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_minimal_config_fills_defaults(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    assert config.suites == ("identities",)
    assert config.tolerances == DEFAULT_TOLERANCES
    assert config.format == "json"
    assert config.instance.options["kind"] == "rational"


def test_missing_seed_with_random_instance():
    payload = {"suites": ["identities"], "instance": {"random": {"n": 4, "N": 2, "count": 3}}}
    with pytest.raises(ConfigError, match="seed"):
        validate_config(payload)


def test_duplicate_x_cites_epsilon(tmp_path):
    payload = {
        "suites": ["mc-h2"],
        "instance": {
            "explicit": {
                "n": 2, "N": 2, "x": [0.5, 0.5], "g": [1.0, 2.0],
                "hbar": 1.0, "kappa": 0.1, "weight": [1, 1],
            }
        },
    }
    with pytest.raises(ConfigError, match="epsilon_x"):
        validate_config(payload)


def test_unknown_suite_and_bad_tolerance(tmp_path, capsys):
    bad = copy.deepcopy(MINIMAL)
    bad["suites"] = ["identities", "nope"]
    with pytest.raises(ConfigError, match=r"suites\[1\]"):
        validate_config(bad)
    for value in (0.0, True, float("inf")):
        bad = copy.deepcopy(MINIMAL)
        bad["tolerances"] = {"identities": value}
        with pytest.raises(ConfigError, match="tolerances.identities"):
            validate_config(bad)
    for value in ([1e-3], "abc"):
        bad = dict(MINIMAL, tolerances=value)
        with pytest.raises(ConfigError, match="tolerances: must be an object"):
            validate_config(bad)
        assert cli.main(["verify", "--config", write_config(tmp_path, bad)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "config error: tolerances: must be an object\n"


def test_parse_error_has_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"suites": [')
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path))


def test_reports_deterministic_modulo_timestamps(tmp_path):
    payload = dict(MINIMAL, suites=["identities", "mc-h2", "momentum"])
    config = load_config(write_config(tmp_path, payload))

    def strip(d):
        if isinstance(d, dict):
            return {
                k: strip(v)
                for k, v in d.items()
                if k not in ("timestamp", "wall_time_s")
            }
        if isinstance(d, list):
            return [strip(v) for v in d]
        return d

    a = strip(run_suites(config).to_dict())
    b = strip(run_suites(config).to_dict())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_written_atomically(tmp_path):
    out = tmp_path / "report.json"
    payload = dict(MINIMAL, output=str(out))
    config = load_config(write_config(tmp_path, payload))
    report = run_suites(config)
    assert report.passed
    on_disk = json.loads(out.read_text())
    assert on_disk["overall_pass"] is True
    assert on_disk["suites"]["identities"]["pass"] is True
    assert not list(tmp_path.glob("*.tmp"))


def test_written_files_follow_the_umask(tmp_path):
    # a report or plot file gets the mode open() gives a new file, not the
    # 0o600 of a private temp file
    import stat

    reference = tmp_path / "reference.txt"
    reference.write_text("")
    payload = dict(
        MINIMAL, output=str(tmp_path / "report.json"), sweep={"param": "kappa", "values": [0.2]}
    )
    report = run_suites(load_config(write_config(tmp_path, payload)))
    emit_plot_data(report, out_path=str(tmp_path / "sweep.csv"))
    for name in ("report.json", "sweep.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_exit_code_pass_and_fail(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    assert cli.main(["verify", "--config", path]) == 0
    # shrink tolerances to force a verification failure (exit 1)
    failing = dict(MINIMAL, tolerances={"identities": 1e-300})
    path = write_config(tmp_path, failing, "failing.json")
    assert cli.main(["verify", "--config", path]) == 1


def test_exit_code_config_error(tmp_path):
    path = write_config(tmp_path, {"suites": []}, "bad.json")
    assert cli.main(["verify", "--config", path]) == 3


def test_exit_code_infrastructure_error(tmp_path, monkeypatch):
    import kzcal.suites as suites_mod

    def boom(*args, **kwargs):
        raise DegenerateSpectrumError("synthetic failure")

    monkeypatch.setattr(suites_mod, "gaudin_joint_spectrum", boom)
    payload = dict(MINIMAL, suites=["qc-rational"])
    path = write_config(tmp_path, payload)
    assert cli.main(["verify", "--config", path]) == 2


def test_seed_override_changes_instances(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    config = load_config(path)
    base = run_suites(config).to_dict()
    import dataclasses

    other = run_suites(dataclasses.replace(config, seed=2)).to_dict()
    assert base["suites"]["identities"]["instances"] != other["suites"]["identities"]["instances"]


def test_sweep_and_plot_data(tmp_path):
    payload = dict(
        MINIMAL,
        suites=["trig-mc", "mc-h2"],
        sweep={"param": "gamma", "values": [1e-1, 1e-2, 1e-3]},
    )
    config = load_config(write_config(tmp_path, payload))
    report = run_suites(config)
    rows = report.suites["trig-mc"].sweep
    assert [r["value"] for r in rows] == [1e-1, 1e-2, 1e-3]
    out = tmp_path / "plots" / "sweep.csv"
    assert emit_plot_data(report, out_path=str(out)) == str(out)
    text = out.read_text()
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "suite,parameter,residual"
    assert lines[-1] == ""
    # every swept suite, one row per value, in report order
    assert [line.split(",")[:2] for line in lines[1:-1]] == [
        [name, repr(value)] for name in ("trig-mc", "mc-h2") for value in (1e-1, 1e-2, 1e-3)
    ]
    for line, entry in zip(lines[4:-1], report.suites["mc-h2"].sweep):
        assert float(line.split(",")[2]) == entry["max_residual"]
    assert emit_plot_data(report.to_dict(), out_path=str(out)) == str(out)
    assert out.read_text() == text
    assert sorted(p.name for p in out.parent.iterdir()) == ["sweep.csv"]  # no temp file left


def test_hbar_sweep_is_flat_at_machine_epsilon(tmp_path):
    # the quadratic covector identity is exact in hbar, so sweeping it
    # leaves the residual at rounding level for every value
    payload = dict(
        MINIMAL,
        suites=["mc-h2"],
        sweep={"param": "hbar", "values": [0.25, 0.5, 1.0, 2.0, 4.0]},
    )
    config = load_config(write_config(tmp_path, payload))
    rows = run_suites(config).suites["mc-h2"].sweep
    assert all(r["max_residual"] < 1e-11 for r in rows)


def test_tolerance_scale_flag(tmp_path):
    failing = dict(MINIMAL, tolerances={"identities": 1e-300})
    path = write_config(tmp_path, failing)
    assert cli.main(["verify", "--config", path]) == 1
    assert cli.main(["verify", "--config", path, "--tolerance-scale", "1e295"]) == 0


def test_plot_data_without_sweep(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    report = run_suites(load_config(path))
    capsys.readouterr()
    out = tmp_path / "none.csv"
    assert emit_plot_data(report, out_path=str(out)) is None
    assert capsys.readouterr().out == ""  # the library writes nothing and prints nothing
    assert not out.exists()
    assert cli.main(["verify", "--config", path, "--plot-data", str(out)]) == 0
    assert "no parameter sweep" in capsys.readouterr().out
    assert not out.exists()


def test_csv_report_format(tmp_path):
    out = tmp_path / "report.csv"
    payload = dict(MINIMAL, output=str(out), format="csv")
    config = load_config(write_config(tmp_path, payload))
    run_suites(config)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "suite,pass,count,max_residual,median_residual,tolerance"
    assert lines[1].startswith("identities,1,3,")


def test_cli_spectrum_and_qc_and_integrate(capsys):
    args = [
        "--n", "2", "--N", "2", "--x", "0,1", "--g", "1,2",
        "--weight", "1,1", "--kappa", "0.1", "--seed", "4",
    ]
    assert cli.main(["spectrum", *args]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 2
    p1_total = sum(item["p"][0][0] for item in payload["items"])
    assert p1_total == pytest.approx(3.0, abs=1e-9)  # tr H_1 = g_1 + g_2

    assert cli.main(["qc", *args]) == 0
    assert "match" in capsys.readouterr().out

    assert cli.main(["integrate", *args, "--waypoints", "0.05,1;0.05,1.2"]) == 0
    out = capsys.readouterr().out
    assert "final wavefunction" in out


def test_cli_explicit_verify_instance(tmp_path):
    payload = {
        "suites": ["mc-h2", "mc-h3", "momentum", "kz-integrate", "qc-rational"],
        "seed": 3,
        "instance": {
            "explicit": {
                "n": 2, "N": 2, "x": [0.0, 1.0], "g": [1.0, 2.0],
                "hbar": 1.0, "kappa": 0.1, "weight": [1, 1],
            }
        },
    }
    path = write_config(tmp_path, payload)
    config = load_config(path)
    report = run_suites(config)
    assert report.passed
    assert report.suites["mc-h2"].max_residual < 1e-13
    assert report.suites["qc-rational"].max_residual < 1e-10
    assert cli.main(["verify", "--config", path]) == 0


def test_rerun_matches_on_every_suite(tmp_path):
    # every suite on a config where a shared mpmath precision once made
    # concurrent runs fail qc-rational; a second run gives the same residuals
    payload = {
        "suites": list(SUITE_NAMES),
        "seed": 7,
        "instance": {"random": {"n": 5, "N": 2, "count": 6, "dim_cap": 30}},
    }
    config = load_config(write_config(tmp_path, payload))
    first = run_suites(config)
    again = run_suites(config)
    for name in SUITE_NAMES:
        assert again.suites[name].residuals == first.suites[name].residuals, name
    assert first.suites["qc-rational"].passed


def test_readme_config_passes_qc_rational_with_multiplicity_three(tmp_path):
    # the README example's instances include (1,3,1)-type sectors, whose
    # size-3 Jordan blocks need momenta far beyond double precision
    payload = {
        "suites": ["qc-rational"],
        "seed": 12345,
        "instance": {"random": {"n": 5, "N": 3, "count": 20, "kind": "rational"}},
    }
    config = load_config(write_config(tmp_path, payload))
    assert any(max(w.M) == 3 for _, w in build_instances(config))
    suite = run_suites(config).suites["qc-rational"]
    assert suite.tolerance == 1e-8
    assert suite.passed
    assert suite.max_residual < 1e-8


def test_nan_sub_check_fails_the_suite(tmp_path, monkeypatch):
    import kzcal.suites as suites_mod

    monkeypatch.setattr(
        suites_mod, "verify_twist_sum_identities", lambda *a: {"pair_twist": float("nan")}
    )
    path = write_config(tmp_path, MINIMAL)
    report = run_suites(load_config(path))
    suite = report.suites["identities"]
    assert all(np.isnan(r) for r in suite.residuals)
    assert np.isnan(suite.max_residual)
    assert not suite.passed
    assert cli.main(["verify", "--config", path]) == 1


def test_nan_pair_coefficient_fails_commutativity_and_flatness(tmp_path, monkeypatch):
    from kzcal.kernel import PairKernel

    x = (0.0, 1.1, 2.3, 3.6)
    p = PairKernel.p

    def p_nan_on_pair_12(self, dx, w=1):
        return float("nan") if abs(dx) == x[1] - x[0] else p(self, dx, w)

    monkeypatch.setattr(PairKernel, "p", p_nan_on_pair_12)
    payload = {
        "suites": ["commutativity", "flatness"],
        "instance": {"explicit": {
            "n": 4, "N": 2, "x": list(x), "g": [1.0, 2.0], "hbar": 1.0, "kappa": 0.3,
            "weight": [2, 2],
        }},
    }
    path = write_config(tmp_path, payload)
    report = run_suites(load_config(path))
    for name in ("commutativity", "flatness"):
        suite = report.suites[name]
        assert np.isnan(suite.residuals[0]) and np.isnan(suite.max_residual)
        assert not suite.passed
    assert cli.main(["verify", "--config", path]) == 1


QC_ARGS = [
    "--n", "2", "--N", "2", "--x", "0,1", "--g", "1,2",
    "--weight", "1,1", "--kappa", "0.1", "--seed", "4",
]


def _patched_qc_check(monkeypatch, **fields):
    """Make every QC report carry the given fields, on top of the real check."""
    import dataclasses

    real = cli.qc_check

    def patched(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), **fields)

    monkeypatch.setattr(cli, "qc_check", patched)


def test_cli_qc_worst_line_shows_a_nan_mismatch(monkeypatch, capsys):
    _patched_qc_check(monkeypatch, max_mismatch=float("nan"))
    assert cli.main(["qc", *QC_ARGS]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all("mismatch nan" in line for line in lines[:-1])
    assert lines[-1] == "worst eigenvalue mismatch over 2 items: nan"


@pytest.mark.parametrize("trace_error", [1.0, float("nan")])
def test_cli_qc_fails_on_the_trace_error(monkeypatch, capsys, trace_error):
    _patched_qc_check(monkeypatch, max_trace_rel_error=trace_error)
    assert cli.main(["qc", *QC_ARGS]) == 1
    out = capsys.readouterr().out
    assert out.count("VIOLATION") == 2
    assert out.splitlines()[-1].startswith("worst eigenvalue mismatch over 2 items: ")
    assert "nan" not in out.splitlines()[-1]  # the eigenvalues themselves match


def test_cli_qc_arpack_failure_is_infrastructure_error(monkeypatch):
    import scipy.sparse.linalg

    import kzcal.classical as classical_mod

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("synthetic", np.empty(0), np.empty((0, 0)))

    # route a small sector through the partial (ARPACK) path
    monkeypatch.setattr(classical_mod, "DENSE_DIM_LIMIT", 2)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    args = [
        "--n", "3", "--N", "2", "--x", "0,1,2.5", "--g", "1,2",
        "--weight", "2,1", "--kappa", "0.1", "--seed", "4",
    ]
    assert cli.main(["qc", *args]) == 2


def test_cli_integration_failure_is_infrastructure_error(monkeypatch, capsys):
    # a right-hand side that is NaN everywhere: the stepper gives up on the
    # first segment, and the command prints one line and exits 2
    monkeypatch.setattr(kz, "_segment_rhs", lambda *a: lambda t, y: y * np.nan)
    assert cli.main(["integrate", *QC_ARGS, "--waypoints", "0.05,1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: integration failed on segment")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["verify", "--config", "cfg.json", "--jobs", "2"],
        ["qc", "--n", "2", "--N", "2", "--x", "0", "--g", "1,2", "--weight", "1,1"],
        ["qc", "--n", "2", "--N", "2", "--x", "0,1", "--g", "1,2", "--weight", "2"],
        ["integrate", *QC_ARGS, "--waypoints", "a,b"],
        ["integrate", *QC_ARGS, "--waypoints", "0.1,1;0.2"],
        ["integrate", *QC_ARGS, "--waypoints", "1,0"],
        ["spectrum", *QC_ARGS, "--out", "cfg.json/x.json"],
        ["verify", "--config", "cfg.json", "--out", "cfg.json/r.json"],
        ["verify", "--config", "cfg.json", "--plot-data", "cfg.json/s.csv"],
        ["qc", "--n", "3", "--N", "2", "--x", "0,nan,1", "--g", "1,2", "--weight", "2,1"],
        ["integrate", *QC_ARGS, "--kappa", "nan", "--waypoints", "0.05,1"],
        ["spectrum", *QC_ARGS, "--hbar", "inf"],
        ["integrate", *QC_ARGS, "--waypoints", "nan,1"],
        ["integrate", *QC_ARGS, "--waypoints", "0.05,1", "--tolerance", "nan"],
        ["verify", "--config", "cfg.json", "--tolerance-scale", "nan"],
        ["verify", "--config", "cfg.json", "--tolerance-scale", "0"],
        ["qc", *QC_ARGS, "--tol", "nan"],
    ],
    ids=[
        "no-config", "jobs", "short-x", "short-weight", "bad-waypoint", "short-waypoint",
        "colliding-path", "spectrum-out-under-file", "verify-out-under-file",
        "plot-data-under-file", "nan-x", "nan-kappa", "inf-hbar", "nan-waypoint",
        "nan-tolerance", "nan-tolerance-scale", "zero-tolerance-scale", "nan-qc-tol",
    ],
)
def test_command_line_input_errors_exit_3(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, MINIMAL)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


EXPLICIT = {"n": 3, "N": 2, "x": [0, 1.5, 3], "g": [1, 2], "hbar": 1, "kappa": 0.3, "weight": [2, 1]}


@pytest.mark.parametrize(
    "instance",
    [
        {"explicit": dict(EXPLICIT, x=[0, float("nan"), 1])},
        {"explicit": dict(EXPLICIT, hbar="abc")},
        {"random": {"n": 4, "N": 2, "count": 2, "hbar": 0}},
        {"random": {"n": 4, "N": 2, "count": 2, "kappa": "abc"}},
        {"random": {"n": 4, "N": 2, "count": 2, "dim_cap": 0}},
        {"random": {"n": 4, "N": 2, "count": 2, "min_dim": 7}},
        {"explicit": dict(EXPLICIT, weight=[2.5, 1.5])},
        {"explicit": dict(EXPLICIT, weight=[10**310, 1])},
        {"explicit": dict(EXPLICIT, n=True, x=[0], weight=[1, 0])},
        {"explicit": dict(EXPLICIT, N=True, g=[1], weight=[3])},
        {"explicit": dict(EXPLICIT, strict="false")},
        {"explicit": dict(EXPLICIT, strict=0)},
    ],
    ids=["explicit-nan-x", "explicit-hbar-abc", "random-hbar-0", "random-kappa-abc",
         "random-dim-cap-0", "random-no-weight", "explicit-weight-2.5",
         "explicit-weight-310-digits", "explicit-n-true", "explicit-N-true",
         "explicit-strict-string", "explicit-strict-0"],
)
def test_config_instance_errors_exit_3(tmp_path, monkeypatch, capsys, instance):
    # rejected while the instances are built, before any suite runs
    import kzcal.suites as suites_mod

    def no_suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(suites_mod, "_run_one_suite", no_suite)
    path = write_config(tmp_path, {"suites": ["identities"], "seed": 1, "instance": instance})
    assert cli.main(["verify", "--config", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: instance.")


def test_integral_float_counts_run_as_integers(tmp_path):
    # n and N follow the occupation-number rule: 3.0 is the integer 3
    def report(instance):
        payload = {"suites": ["commutativity", "flatness"], "seed": 1,
                   "instance": {"explicit": instance}}
        out = run_suites(load_config(write_config(tmp_path, payload))).to_dict()
        return {k: v for k, v in out.items() if k != "timestamp"}

    floats = report(dict(EXPLICIT, n=3.0, N=2.0))
    ints = report(EXPLICIT)
    for data in (floats, ints):
        for suite in data["suites"].values():
            suite.pop("wall_time_s")
    assert json.dumps(floats, sort_keys=True) == json.dumps(ints, sort_keys=True)
    assert floats["overall_pass"]


def test_sector_whose_base_n_codes_overflow_exits_0(tmp_path):
    # (63, 1) has n = 64 and dim 64, and 2 * 2^63 wraps an int64 code
    instance = {"n": 64, "N": 2, "x": [0.3 * k for k in range(64)], "g": [1, 2],
                "hbar": 1, "kappa": 0.1, "weight": [63, 1]}
    payload = {"suites": ["mc-h2", "mc-h3", "momentum", "commutativity", "flatness"],
               "seed": 1, "instance": {"explicit": instance}}
    assert cli.main(["verify", "--config", write_config(tmp_path, payload)]) == 0


def test_letters_above_127_read_their_own_twists(tmp_path):
    # M_129 = M_130 = 1 of N = 130 with g_a = a: letters that wrapped at
    # int8 read the twists of other species and failed mc-h2 and momentum
    weight = [0] * 128 + [1, 1]
    instance = {"n": 2, "N": 130, "x": [0, 1], "g": list(range(1, 131)),
                "hbar": 1, "kappa": 0.1, "weight": weight}
    payload = {"suites": ["mc-h2", "momentum"], "seed": 1, "instance": {"explicit": instance}}
    config = load_config(write_config(tmp_path, payload))
    states = get_basis(WeightVector(tuple(weight))).states
    np.testing.assert_array_equal(states, [[129, 130], [130, 129]])
    report = run_suites(config)
    assert report.passed
    assert report.suites["mc-h2"].max_residual < 1e-13
    assert report.suites["momentum"].max_residual < 1e-13


def test_random_config_with_a_large_N_exits_0(tmp_path):
    payload = {"suites": ["mc-h2", "momentum"], "seed": 1,
               "instance": {"random": {"n": 4, "N": 100_000, "count": 1}}}
    assert cli.main(["verify", "--config", write_config(tmp_path, payload)]) == 0


def test_spectrum_out_makes_missing_directories(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["spectrum", *QC_ARGS, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["dimension"] == 2


def test_verify_help_exits_0_without_jobs(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "--config" in out and "--jobs" not in out


LEAN_PROBE = """
import sys
from kzcal import cli
heavy = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse.linalg")
print([name for name in heavy if name in sys.modules])
code = cli.main(["verify", "--config", sys.argv[1]])
print([name for name in heavy if name in sys.modules], code)
"""


def test_import_and_verify_leave_heavy_scipy_modules_unloaded(tmp_path):
    # start-up imports only what the checks run: the DOP853 tableau is
    # kzcal's own, and ARPACK loads only for a sector above the dense limit
    payload = {
        "suites": list(SUITE_NAMES),
        "seed": 7,
        "instance": {"random": {"n": 4, "N": 2, "count": 2, "dim_cap": 30}},
        "output": str(tmp_path / "report.json"),
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_PROBE, write_config(tmp_path, payload)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "[] 0"
