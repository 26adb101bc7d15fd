"""Tests for the buffered random-variate helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fastrng import DEFAULT_BLOCK, FastRng


class TestDistributions:
    def test_random_in_unit_interval(self):
        rng = FastRng(np.random.default_rng(0))
        samples = [rng.random() for _ in range(50_000)]
        assert all(0.0 <= s < 1.0 for s in samples)
        assert np.mean(samples) == pytest.approx(0.5, abs=0.01)

    def test_uniform_range(self):
        rng = FastRng(np.random.default_rng(1))
        samples = [rng.uniform(5.0, 7.0) for _ in range(20_000)]
        assert min(samples) >= 5.0
        assert max(samples) < 7.0
        assert np.mean(samples) == pytest.approx(6.0, abs=0.02)

    def test_standard_normal_moments(self):
        rng = FastRng(np.random.default_rng(2))
        samples = np.array([rng.standard_normal() for _ in range(50_000)])
        assert samples.mean() == pytest.approx(0.0, abs=0.02)
        assert samples.std() == pytest.approx(1.0, abs=0.02)

    def test_normal_location_scale(self):
        rng = FastRng(np.random.default_rng(3))
        samples = np.array([rng.normal(10.0, 2.0) for _ in range(50_000)])
        assert samples.mean() == pytest.approx(10.0, abs=0.05)
        assert samples.std() == pytest.approx(2.0, abs=0.05)


class TestBuffering:
    def test_block_refill_transparent(self):
        """Values keep flowing across the 16384-sample block boundary."""
        rng = FastRng(np.random.default_rng(4))
        samples = [rng.random() for _ in range(40_000)]
        assert len(set(np.round(samples[:100], 12))) > 90

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_per_seed(self, seed):
        a = FastRng(np.random.default_rng(seed))
        b = FastRng(np.random.default_rng(seed))
        assert [a.random() for _ in range(10)] == \
            [b.random() for _ in range(10)]
        assert [a.standard_normal() for _ in range(10)] == \
            [b.standard_normal() for _ in range(10)]


class TestFastRngBlockSize:
    """The stream is a deterministic function of (seed, block).

    The default block must reproduce the historical layout exactly —
    uniform presample first, normal presample second, raw-generator
    consumers continuing after both — because every golden digest
    depends on it.  Non-default blocks are deterministic too, but are
    deliberately distinct streams (see the fastrng module docstring).
    """

    def test_default_block_pins_historical_layout(self):
        rng = FastRng(np.random.default_rng(42))
        raw = np.random.default_rng(42)
        expected_uniform = raw.random(DEFAULT_BLOCK)
        expected_normal = raw.standard_normal(DEFAULT_BLOCK)
        assert [rng.random() for _ in range(64)] == \
            expected_uniform[:64].tolist()
        assert [rng.standard_normal() for _ in range(64)] == \
            expected_normal[:64].tolist()
        # Raw-generator consumers (the wakeup model) resume exactly
        # after the two presample blocks.
        assert rng.generator.random() == raw.random()

    def test_explicit_default_block_identical_to_implicit(self):
        implicit = FastRng(np.random.default_rng(7))
        explicit = FastRng(np.random.default_rng(7), block=DEFAULT_BLOCK)
        assert [implicit.random() for _ in range(32)] == \
            [explicit.random() for _ in range(32)]
        assert [implicit.standard_normal() for _ in range(32)] == \
            [explicit.standard_normal() for _ in range(32)]

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_each_block_size_is_deterministic(self, block):
        a = FastRng(np.random.default_rng(9), block=block)
        b = FastRng(np.random.default_rng(9), block=block)
        draws_a = [a.random() for _ in range(3 * block)] + \
            [a.standard_normal() for _ in range(3 * block)]
        draws_b = [b.random() for _ in range(3 * block)] + \
            [b.standard_normal() for _ in range(3 * block)]
        assert draws_a == draws_b

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            FastRng(np.random.default_rng(0), block=0)
