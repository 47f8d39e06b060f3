"""Tests for repro.utils: rng and validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.rng import derive_rng, ensure_rng, spawn_seeds
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_probability,
    check_vector,
    check_vectors,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")  # type: ignore[arg-type]


class TestDeriveRng:
    def test_same_stream_same_output(self):
        parent = np.random.default_rng(7)
        a = derive_rng(parent, "x").random(4)
        b = derive_rng(parent, "x").random(4)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        parent = np.random.default_rng(7)
        a = derive_rng(parent, "x").random(4)
        b = derive_rng(parent, "y").random(4)
        assert not np.array_equal(a, b)

    def test_parent_state_not_consumed(self):
        parent = np.random.default_rng(7)
        before = parent.bit_generator.state
        derive_rng(parent, "x")
        assert parent.bit_generator.state == before

    def test_order_independent(self):
        p1 = np.random.default_rng(7)
        x_first = derive_rng(p1, "x").random(3)
        p2 = np.random.default_rng(7)
        derive_rng(p2, "y")
        x_second = derive_rng(p2, "x").random(3)
        assert np.array_equal(x_first, x_second)


class TestSpawnSeeds:
    def test_count_and_determinism(self):
        seeds = spawn_seeds(5, 4)
        assert len(seeds) == 4
        assert seeds == spawn_seeds(5, 4)

    def test_distinct(self):
        assert len(set(spawn_seeds(5, 10))) == 10


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", 0)

    def test_check_positive_nonstrict_accepts_zero(self):
        assert check_positive("x", 0, strict=False) == 0

    def test_check_positive_nonstrict_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", -1, strict=False)

    def test_check_fraction(self):
        assert check_fraction("f", 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            check_fraction("f", 0.0)
        with pytest.raises(ConfigurationError):
            check_fraction("f", 1.2)

    def test_check_probability(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            check_probability("p", -0.01)

    def test_check_vector_shape(self):
        out = check_vector("v", np.array([1.0, 2.0]), dim=2)
        assert out.dtype == np.float64
        with pytest.raises(ConfigurationError):
            check_vector("v", np.array([1.0, 2.0]), dim=3)

    def test_check_vector_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            check_vector("v", np.zeros((2, 2)))

    def test_check_vector_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            check_vector("v", np.array([1.0, np.nan]))

    def test_check_vectors_shape(self):
        out = check_vectors("m", np.zeros((3, 4)), dim=4)
        assert out.shape == (3, 4)
        with pytest.raises(ConfigurationError):
            check_vectors("m", np.zeros((3, 4)), dim=5)

    def test_check_vectors_rejects_1d(self):
        with pytest.raises(ConfigurationError):
            check_vectors("m", np.zeros(4))

    def test_check_vectors_rejects_inf(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ConfigurationError):
            check_vectors("m", bad)

