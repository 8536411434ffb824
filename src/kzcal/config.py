"""Run configuration: JSON schema, validation, defaults.

The schema is deliberately flat; every validation error names the offending
field path.  Randomized instance specs require a seed so that every report is
reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .core import RATIONAL, TRIGONOMETRIC, ModelParams, WeightVector, check_instance
from .errors import ConfigError, KzcalError

DEFAULT_TOLERANCES = {
    "identities": 1e-11,
    "commutativity": 1e-12,
    "flatness": 1e-12,
    "mc-h2": 1e-11,
    "mc-h3": 1e-10,
    "momentum": 1e-12,
    "trig-mc": 1e-11,
    "qc-rational": 1e-8,
    "qc-trig": 1e-7,
    "kz-integrate": 1e-8,
}

SUITE_NAMES = tuple(DEFAULT_TOLERANCES)

SWEEP_PARAMS = ("gamma", "hbar", "kappa")

RANDOM_DEFAULTS = {
    "kind": RATIONAL,
    "min_gap": 0.2,
    "dim_cap": 400,
    "min_dim": 1,
    "require_multiplicity": False,
    "max_multiplicity": None,
    "hbar": None,
    "kappa": None,
    "gamma": None,
}


@dataclass(frozen=True)
class RandomSpec:
    n: int
    N: int
    count: int
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExplicitSpec:
    params: ModelParams
    weight: WeightVector


@dataclass(frozen=True)
class RunConfig:
    suites: tuple[str, ...]
    seed: int | None
    instance: RandomSpec | ExplicitSpec
    tolerances: dict
    sweep: dict | None = None
    output: str | None = None
    format: str = "json"

    def echo(self) -> dict:
        """Config as written back into reports."""
        if isinstance(self.instance, RandomSpec):
            inst = {
                "random": {
                    "n": self.instance.n,
                    "N": self.instance.N,
                    "count": self.instance.count,
                    **self.instance.options,
                }
            }
        else:
            p, w = self.instance.params, self.instance.weight
            inst = {
                "explicit": {
                    "n": p.n,
                    "N": p.N,
                    "x": list(p.x),
                    "g": list(p.g),
                    "hbar": p.hbar,
                    "kappa": p.kappa,
                    "gamma": p.gamma,
                    "kind": p.kind,
                    "weight": list(w.M),
                }
            }
        out = {
            "suites": list(self.suites),
            "seed": self.seed,
            "instance": inst,
            "tolerances": dict(sorted(self.tolerances.items())),
            "format": self.format,
        }
        if self.sweep:
            out["sweep"] = self.sweep
        if self.output:
            out["output"] = self.output
        return out


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _positive_int(value: Any, path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), path, "must be an integer")
    _require(value >= 1, path, "must be >= 1")
    return value


def _finite(value: Any, path: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
        path,
        "must be a finite number",
    )
    return value


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return validate_config(raw)


def validate_config(raw: Any) -> RunConfig:
    _require(isinstance(raw, dict), "$", "config root must be a JSON object")

    suites = raw.get("suites")
    _require(isinstance(suites, list) and suites, "suites", "must be a non-empty list")
    for k, name in enumerate(suites):
        _require(name in SUITE_NAMES, f"suites[{k}]", f"unknown suite {name!r}; valid: {', '.join(SUITE_NAMES)}")
    suites = tuple(dict.fromkeys(suites))

    instance_raw = raw.get("instance")
    _require(isinstance(instance_raw, dict), "instance", "must be an object with 'random' or 'explicit'")
    has_random = "random" in instance_raw
    has_explicit = "explicit" in instance_raw
    _require(has_random != has_explicit, "instance", "needs exactly one of 'random' or 'explicit'")

    seed = raw.get("seed")
    if seed is not None:
        _require(
            isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            "seed",
            "must be a non-negative integer",
        )
    if has_random:
        _require(seed is not None, "seed", "required whenever instance.random is used")

    tolerances = dict(DEFAULT_TOLERANCES)
    given = raw.get("tolerances")
    _require(given is None or isinstance(given, dict), "tolerances", "must be an object")
    for key, value in (given or {}).items():
        _require(key in SUITE_NAMES, f"tolerances.{key}", "unknown suite name")
        _require(_finite(value, f"tolerances.{key}") > 0, f"tolerances.{key}", "must be > 0")
        tolerances[key] = float(value)

    sweep = raw.get("sweep")
    if sweep is not None:
        _require(isinstance(sweep, dict), "sweep", "must be an object")
        _require(sweep.get("param") in SWEEP_PARAMS, "sweep.param", f"must be one of {SWEEP_PARAMS}")
        values = sweep.get("values")
        _require(isinstance(values, list) and values, "sweep.values", "must be a non-empty list")
        for k, v in enumerate(values):
            _require(_finite(v, f"sweep.values[{k}]") > 0, f"sweep.values[{k}]", "must be > 0")
        sweep = {"param": sweep["param"], "values": [float(v) for v in values]}

    fmt = raw.get("format", "json")
    _require(fmt in ("json", "csv"), "format", "must be 'json' or 'csv'")
    output = raw.get("output")
    if output is not None:
        _require(isinstance(output, str) and output, "output", "must be a non-empty string")

    if has_random:
        spec = instance_raw["random"]
        _require(isinstance(spec, dict), "instance.random", "must be an object")
        n = _positive_int(spec.get("n"), "instance.random.n")
        N = _positive_int(spec.get("N"), "instance.random.N")
        count = _positive_int(spec.get("count"), "instance.random.count")
        options = dict(RANDOM_DEFAULTS)
        for key, value in spec.items():
            if key in ("n", "N", "count"):
                continue
            _require(key in RANDOM_DEFAULTS, f"instance.random.{key}", "unknown field")
            options[key] = value
        _require(
            options["kind"] in (RATIONAL, TRIGONOMETRIC),
            "instance.random.kind",
            f"must be '{RATIONAL}' or '{TRIGONOMETRIC}'",
        )
        _finite(options["min_gap"], "instance.random.min_gap")
        _positive_int(options["dim_cap"], "instance.random.dim_cap")
        _positive_int(options["min_dim"], "instance.random.min_dim")
        if options["max_multiplicity"] is not None:
            _positive_int(options["max_multiplicity"], "instance.random.max_multiplicity")
        _require(
            isinstance(options["require_multiplicity"], bool),
            "instance.random.require_multiplicity",
            "must be true or false",
        )
        for key in ("hbar", "kappa", "gamma"):
            if options[key] is not None:
                _finite(options[key], f"instance.random.{key}")
        instance: RandomSpec | ExplicitSpec = RandomSpec(n=n, N=N, count=count, options=options)
    else:
        spec = instance_raw["explicit"]
        _require(isinstance(spec, dict), "instance.explicit", "must be an object")
        for fieldname in ("n", "N", "x", "g", "hbar", "kappa", "weight"):
            _require(fieldname in spec, f"instance.explicit.{fieldname}", "missing required field")
        strict = spec.get("strict", True)
        _require(isinstance(strict, bool), "instance.explicit.strict", "must be true or false")
        try:
            params = ModelParams(
                n=spec["n"],
                N=spec["N"],
                x=tuple(spec["x"]),
                g=tuple(spec["g"]),
                hbar=float(spec["hbar"]),
                kappa=float(spec["kappa"]),
                gamma=float(spec.get("gamma", 0.0)),
                kind=spec.get("kind", RATIONAL),
                strict=strict,
            )
            weight = WeightVector(tuple(spec["weight"]))
            check_instance(params, weight)
        except (KzcalError, TypeError, ValueError) as exc:  # ValueError: float("abc")
            raise ConfigError(f"instance.explicit: {exc}")
        instance = ExplicitSpec(params=params, weight=weight)

    return RunConfig(
        suites=suites,
        seed=seed,
        instance=instance,
        tolerances=tolerances,
        sweep=sweep,
        output=output,
        format=fmt,
    )
