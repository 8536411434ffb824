"""Workload definitions: each workload is a list of kzcal run configs made from a seed.

The benchmark, not kzcal, draws every input.  A workload seed feeds a numpy
Philox stream per config label, so kzcal sees only finished configs (the same
JSON a user passes to ``kzcal verify --config``) and a change to kzcal's own
random helpers cannot change the inputs.  Each config becomes one
``run_suites`` call with ``jobs=1`` and writes one report.

Every workload fixes the *shape* of its sectors (weights up to letter order,
dimensions, suites) and lets the seed draw only coordinates, twists, couplings,
letter order and the suites' random streams.  The cost of a run therefore does
not depend on which seed the driver picks; an unpinned random config would mix
sector sizes differently on every seed and its wall time would spread by more
than any useful bound.

Why each workload exists, and which layer it isolates:

``verify-example``
    What a user runs first: the README example config (all ten suites,
    rational, n=5, N=3, README tolerances), split into one config per
    subspace dimension so that every seed runs the same mix of sectors
    (two instances each of dims 5, 10 and 20, six of dim 30).  Twelve
    instances rather than five average out more of the seed-to-seed cost of
    the Lax eigensolves.  The README's gamma sweep is left out; it only
    repeats each suite four more times.  About 90 % of the time is the
    per-item extended-precision Lax eigensolve inside ``classical.qc_check``;
    every other layer works at dim <= 30.  It has the most checks, so the
    suite glue and report writing weigh most here.  The dim-10 and dim-20
    sectors carry a multiplicity-3 twist, where ``qc-rational`` is known to
    miss its 1e-8 tolerance on some seeds; those failures are counted, never
    avoided.

``qc-multiplicity``
    ``qc-rational`` alone on n=6 sectors with repeated twists, in the shape
    of acceptance criterion 6 (min_gap 0.5, kappa in [0.1, 0.35]).  The
    sectors are explicit because a random config cannot force M_a >= 4:
    (4,1,1) and (2,4) take the O(dim^4) mpmath inverse-iteration momentum
    refinement, (3,3) is the known near-tolerance multiplicity-3 case, and
    (2,2,2) is the largest sector (dim 90).  Refinement is a large share of
    the time here and only a few percent in ``verify-example``, so the pair
    tells a refinement change apart from a Lax-eigensolve change.

``float64-large``
    No mpmath at all.  Seven float64 suites on n=12 (4,4,4), dim 34650, and
    n=14 (6,5,3), dim 168168, plus the ``identities`` suite on n=12, N=2
    sectors of dim <= 66, where the exact case tables run (the shape of
    criterion 9).  It exercises the matrix-free ``TermOperator`` core and
    the case tables while ``classical`` does nothing.  At dim 168168 the
    91 swap tables come to 138 MB (computed: 8-byte perm + 1-byte sign per
    state), above the 2 MiB per-core L2 and the 105 MiB L3, so memory
    effects show.  ``kz-integrate`` walks the same pair tables through
    ``kz._segment_rhs`` instead of ``TermOperator``, so a gain in one path
    that costs the other shows in the same run.  Points are at least 1 apart
    and kappa in [0.5, 0.6], hbar in [0.9, 1.1], narrower than in the other
    workloads, so that the seed moves the cost little: over five seeds the
    spread of ``wall_norm_s`` fell from 0.088 (gaps from 0.2, kappa in
    [0.2, 0.9], hbar in [0.6, 1.4]) to 0.041 (0.065 over ten seeds).

Run-to-run spread seen while the benchmark was made steady is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import zlib

import numpy as np

README_SUITES = [
    "identities", "commutativity", "mc-h2", "mc-h3", "momentum",
    "trig-mc", "qc-rational", "qc-trig", "kz-integrate", "flatness",
]

FLOAT64_SUITES = [
    "mc-h2", "mc-h3", "momentum", "trig-mc", "commutativity", "flatness",
    "kz-integrate",
]

# (label, subspace dimension, instance count) of the verify-example configs;
# the dim-5 class is run first because the worker re-runs its first config
# to check determinism, and it is the cheapest.
VERIFY_EXAMPLE_CLASSES = [("dim5", 5, 2), ("dim10", 10, 2), ("dim20", 20, 2), ("dim30", 30, 6)]

# (label, occupation shape) of the qc-multiplicity sectors, cheapest first
QC_MULTIPLICITY_SECTORS = [
    ("m33", (3, 3)),
    ("m24", (2, 4)),
    ("m222", (2, 2, 2)),
    ("m411", (4, 1, 1)),
]

# (label, occupation shape, suites) of the float64-large configs, cheapest first
FLOAT64_LARGE_SECTORS = [
    ("id12-a", (1, 11), ["identities"]),
    ("id12-b", (1, 11), ["identities"]),
    ("id66-a", (2, 10), ["identities"]),
    ("id66-b", (2, 10), ["identities"]),
    ("n12-444", (4, 4, 4), FLOAT64_SUITES),
    ("n14-653", (6, 5, 3), FLOAT64_SUITES),
]

WORKLOADS = ("verify-example", "qc-multiplicity", "float64-large")


def _rng(seed: int, label: str) -> np.random.Generator:
    key = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(label.encode()),))
    return np.random.Generator(np.random.Philox(key))


def _explicit(seed: int, label: str, shape, min_gap: float, kappa_range, hbar_range=(0.6, 1.4)) -> dict:
    """One explicit instance: shuffled padded coordinates, jittered integer twists."""
    rng = _rng(seed, label)
    n, N = sum(shape), len(shape)
    x = np.sort(rng.uniform(0.0, 1.0, size=n)) + min_gap * np.arange(n)
    x -= x.mean()
    rng.shuffle(x)
    weight = [int(m) for m in rng.permutation(shape)]
    return {
        "n": n,
        "N": N,
        "x": [float(v) for v in x],
        "g": [float(a + 1 + rng.uniform(-0.25, 0.25)) for a in range(N)],
        "hbar": float(rng.uniform(*hbar_range)),
        "kappa": float(rng.uniform(*kappa_range)),
        "gamma": float(rng.uniform(0.3, 1.0)),
        "kind": "rational",
        "weight": weight,
    }


def make_configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(label, config) pairs for one workload; the same seed gives the same configs."""
    seed = int(seed) % 2**63
    if workload == "verify-example":
        return [
            (label, {
                "suites": README_SUITES,
                "seed": seed,
                "instance": {"random": {
                    "n": 5, "N": 3, "count": count, "kind": "rational",
                    "min_dim": dim, "dim_cap": dim,
                }},
                "tolerances": {"mc-h2": 1e-11},
                "format": "json",
            })
            for label, dim, count in VERIFY_EXAMPLE_CLASSES
        ]
    if workload == "qc-multiplicity":
        return [
            (label, {
                "suites": ["qc-rational"],
                "seed": seed,
                "instance": {"explicit": _explicit(seed, label, shape, 0.5, (0.1, 0.35))},
                "format": "json",
            })
            for label, shape in QC_MULTIPLICITY_SECTORS
        ]
    if workload == "float64-large":
        return [
            (label, {
                "suites": suites,
                "seed": seed,
                "instance": {"explicit": _explicit(seed, label, shape, 1.0, (0.5, 0.6), (0.9, 1.1))},
                "format": "json",
            })
            for label, shape, suites in FLOAT64_LARGE_SECTORS
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
