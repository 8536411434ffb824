"""Seeded random problem instances.

Seed protocol: every random object derives from one integer seed through a
counter-based Philox generator.  Sub-streams are keyed by crc32 hashes of
string labels (suite name, instance index), so each suite and instance is
individually reproducible regardless of execution order.

Coordinates are drawn as sorted uniforms padded to a minimum pairwise gap,
then shuffled; the gap keeps pair kernels O(1) so that rounding noise stays
far below the residual tolerances.  Twists are distinct integers 1..N with a
small jitter, which keeps them separated, nonzero, and generic.
"""

from __future__ import annotations

import zlib

import numpy as np

from .core import RATIONAL, TRIGONOMETRIC, ModelParams, WeightVector

__all__ = ["rng_for", "random_coordinates", "random_weight", "random_instance"]


def rng_for(seed: int, *labels) -> np.random.Generator:
    """Philox stream keyed by (seed, crc32(label), ...)."""
    key = tuple(zlib.crc32(str(label).encode()) for label in labels)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def random_coordinates(rng: np.random.Generator, n: int, min_gap: float = 0.2):
    u = np.sort(rng.uniform(0.0, 1.0, size=n))
    x = u + min_gap * np.arange(n)
    x -= x.mean()
    rng.shuffle(x)
    return tuple(float(v) for v in x)


def random_weight(
    rng: np.random.Generator,
    n: int,
    N: int,
    dim_cap: int = 400,
    min_dim: int = 1,
    require_multiplicity: bool = False,
    max_multiplicity: int | None = None,
) -> WeightVector:
    """Occupation vector with bounded subspace dimension.

    require_multiplicity forces some M_a >= 2 (string sectors);
    max_multiplicity caps the largest M_a (defectiveness control).
    """
    for _ in range(512):
        M = rng.multinomial(n, np.full(N, 1.0 / N))
        w = WeightVector(tuple(M.tolist()))
        if not min_dim <= w.dimension() <= dim_cap:
            continue
        if require_multiplicity and max(w.M) < 2:
            continue
        if max_multiplicity is not None and max(w.M) > max_multiplicity:
            continue
        return w
    raise ValueError(
        f"could not draw a weight for n={n}, N={N} within dim cap {dim_cap}"
    )


def random_instance(
    rng: np.random.Generator,
    n: int,
    N: int,
    kind: str = RATIONAL,
    min_gap: float = 0.2,
    dim_cap: int = 400,
    min_dim: int = 1,
    require_multiplicity: bool = False,
    max_multiplicity: int | None = None,
    hbar: float | None = None,
    kappa: float | None = None,
    gamma: float | None = None,
) -> tuple[ModelParams, WeightVector]:
    """One random (params, weight) pair of the requested kind."""
    x = random_coordinates(rng, n, min_gap)
    g = tuple((np.arange(1, N + 1) + rng.uniform(-0.25, 0.25, size=N)).tolist())
    params = ModelParams(
        n=n,
        N=N,
        x=x,
        g=g,
        hbar=float(hbar) if hbar is not None else float(rng.uniform(0.6, 1.4)),
        kappa=float(kappa) if kappa is not None else float(rng.uniform(0.2, 0.9)),
        gamma=float(gamma) if gamma is not None else float(rng.uniform(0.3, 1.0)),
        kind=kind,
    )
    weight = random_weight(
        rng,
        n,
        N,
        dim_cap=dim_cap,
        min_dim=min_dim,
        require_multiplicity=require_multiplicity,
        max_multiplicity=max_multiplicity,
    )
    return params, weight
