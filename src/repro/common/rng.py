"""Deterministic random-number helpers.

Every stochastic component of the library (workload generation, stream
shuffling, synthetic data) takes an explicit seed and builds its generator
through :func:`make_rng`, so that a whole experiment is reproducible from a
single integer.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from an integer seed.

    ``None`` produces a non-deterministic generator; benchmarks always pass an
    explicit seed.
    """
    return np.random.default_rng(seed)
