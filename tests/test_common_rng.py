"""Tests for repro.common.rng."""

import numpy as np

from repro.common.rng import make_rng


class TestMakeRng:
    def test_same_seed_same_sequence(self):
        a = make_rng(42).integers(0, 1000, size=10)
        b = make_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1000, size=20)
        b = make_rng(2).integers(0, 1000, size=20)
        assert not np.array_equal(a, b)

    def test_returns_numpy_generator(self):
        assert isinstance(make_rng(0), np.random.Generator)

    def test_generators_with_same_seed_are_independent(self):
        a, b = make_rng(7), make_rng(7)
        first = a.integers(0, 1000, size=5)
        a.integers(0, 1000, size=50)  # advancing one must not move the other
        assert np.array_equal(b.integers(0, 1000, size=5), first)

    def test_unseeded_generators_differ(self):
        a = make_rng(None).integers(0, 2**62, size=4)
        b = make_rng().integers(0, 2**62, size=4)
        assert not np.array_equal(a, b)
