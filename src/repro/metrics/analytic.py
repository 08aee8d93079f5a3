"""Closed-form model from the paper.

Equation 1 / Figure 2 — the probability that a randomly-filled buffer pool
contains at least one chunk useful to a query (high even for small buffers
and selective queries, which is the sharing opportunity the normal policy
wastes) — plus a Monte-Carlo cross-check of it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng


def buffer_reuse_probability(table_chunks: int, query_chunks: int, buffer_chunks: int) -> float:
    """Equation 1: probability that a randomly-filled buffer pool of
    ``buffer_chunks`` chunks contains at least one of the ``query_chunks``
    chunks a query needs, out of a table of ``table_chunks`` chunks.

    ``P_reuse = 1 - prod_{i=0}^{C_B - 1} (C_T - C_Q - i) / (C_T - i)``
    """
    if table_chunks <= 0:
        raise ConfigurationError("table_chunks must be positive")
    if not 0 <= query_chunks <= table_chunks:
        raise ConfigurationError("query_chunks must be within [0, table_chunks]")
    if not 0 <= buffer_chunks <= table_chunks:
        raise ConfigurationError("buffer_chunks must be within [0, table_chunks]")
    probability_none = 1.0
    for i in range(buffer_chunks):
        numerator = table_chunks - query_chunks - i
        denominator = table_chunks - i
        if denominator <= 0:
            break
        if numerator <= 0:
            probability_none = 0.0
            break
        probability_none *= numerator / denominator
    return 1.0 - probability_none


def buffer_reuse_probability_curve(
    table_chunks: int,
    buffer_fractions: Sequence[float],
    query_demands: Sequence[int],
) -> Dict[float, List[Tuple[int, float]]]:
    """The full Figure 2 data: one curve per buffered fraction.

    Returns ``{buffer_fraction: [(query_chunks, probability), ...]}``.
    """
    curves: Dict[float, List[Tuple[int, float]]] = {}
    for fraction in buffer_fractions:
        buffer_chunks = max(0, int(round(fraction * table_chunks)))
        curve = [
            (demand, buffer_reuse_probability(table_chunks, demand, buffer_chunks))
            for demand in query_demands
        ]
        curves[fraction] = curve
    return curves


def monte_carlo_reuse_probability(
    table_chunks: int,
    query_chunks: int,
    buffer_chunks: int,
    trials: int = 20_000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of Equation 1 (used to validate the formula)."""
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    rng = make_rng(seed)
    if query_chunks == 0 or buffer_chunks == 0:
        return 0.0
    hits = 0
    table = np.arange(table_chunks)
    for _ in range(trials):
        buffered = rng.choice(table, size=buffer_chunks, replace=False)
        wanted = rng.choice(table, size=query_chunks, replace=False)
        if np.intersect1d(buffered, wanted, assume_unique=True).size > 0:
            hits += 1
    return hits / trials
