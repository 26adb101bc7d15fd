"""Tests for feature selection (distance correlation, backwards elimination)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import (
    backwards_elimination,
    distance_correlation,
    rank_by_distance_correlation,
    select_features,
)


def _reference_dcor(x, y) -> float:
    """Textbook O(n^2) distance correlation in exact arithmetic.

    Every float is a dyadic rational, so scaling a sample by a common
    power of two makes it integer.  The double-centred distance
    matrices, times ``n^2``, are then formed exactly as Python integers,
    and the only rounding is the final conversion to float.
    """
    def integers(v):
        ratios = [float(t).as_integer_ratio() for t in v]
        scale = max(den for _, den in ratios)
        return np.array([num * (scale // den) for num, den in ratios],
                        dtype=object)

    def centred(v):
        n = len(v)
        d = abs(v[:, None] - v[None, :])
        rows = d.sum(axis=1)
        return n * n * d - n * rows[:, None] - n * rows[None, :] + rows.sum()

    a = centred(integers(x))
    b = centred(integers(y))
    dvar_x = int((a * a).sum())
    dvar_y = int((b * b).sum())
    if dvar_x == 0 or dvar_y == 0:
        return 0.0
    dcov = int((a * b).sum())
    return float(Fraction(dcov * dcov, dvar_x * dvar_y)) ** 0.25


def _column(draw, n: int, rng: np.random.Generator) -> np.ndarray:
    kind = draw(st.sampled_from(("ties", "constant", "normal", "offset")))
    if kind == "ties":
        return rng.integers(0, draw(st.integers(1, 4)), n).astype(float)
    if kind == "constant":
        return np.full(n, draw(st.floats(-1e3, 1e3)))
    if kind == "normal":
        return rng.normal(0.0, draw(st.floats(1e-3, 1e3)), n)
    return 1e6 + rng.normal(0.0, 1.0, n)


@st.composite
def _samples(draw):
    """(x, y): tied, constant, continuous and large-offset columns, with
    y sometimes an affine copy of x."""
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _column(draw, n, rng)
    if draw(st.booleans()):
        y = _column(draw, n, rng)
    else:
        slope = draw(st.sampled_from((-3.0, -0.5, 0.1, 1.0, 7.0)))
        y = slope * x + draw(st.floats(-1e3, 1e3))
    return x, y


class TestDistanceCorrelation:
    def test_perfect_linear_dependence(self):
        x = np.linspace(0, 1, 200)
        assert distance_correlation(x, 3 * x + 1) == pytest.approx(1.0, abs=1e-6)

    def test_detects_nonlinear_dependence(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 400)
        y = x**2  # Pearson correlation would be ~0 here
        assert distance_correlation(x, y) > 0.4

    def test_independent_variables_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=800)
        y = rng.normal(size=800)
        assert distance_correlation(x, y) < 0.15

    def test_constant_input_gives_zero(self):
        x = np.ones(100)
        y = np.arange(100.0)
        assert distance_correlation(x, y) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance_correlation(np.ones(3), np.ones(4))

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            distance_correlation(np.ones(1), np.ones(1))

    def test_subsampling_path(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=5000)
        y = 2 * x + rng.normal(0, 0.01, 5000)
        value = distance_correlation(x, y, max_samples=500,
                                     rng=np.random.default_rng(0))
        assert value > 0.95

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=120)
        y = rng.normal(size=120) + 0.3 * x
        forward = distance_correlation(x, y)
        backward = distance_correlation(y, x)
        assert 0.0 <= forward <= 1.0 + 1e-9
        assert forward == pytest.approx(backward, abs=1e-9)


class TestAgainstQuadraticReference:
    @given(_samples())
    @settings(max_examples=80, deadline=None)
    def test_matches_exact_quadratic_statistic(self, sample):
        x, y = sample
        fast = distance_correlation(x, y)
        assert abs(fast - _reference_dcor(x, y)) <= 1e-9
        assert abs(fast - distance_correlation(y, x)) <= 1e-9
        assert 0.0 <= fast <= 1.0
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            assert fast == 0.0

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 5)),
                    min_size=2, max_size=4, unique_by=lambda t: t[0]),
           st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 5)),
                    min_size=2, max_size=4, unique_by=lambda t: t[0]))
    @settings(max_examples=60, deadline=None)
    def test_factorized_sample_gives_exactly_zero(self, x_levels, y_levels):
        # Every (x, y) cell holds count(x) * count(y) samples, so the
        # empirical joint distribution is the product of its marginals
        # and the statistic is exactly zero.  Non-dyadic means make a
        # mean-centred float computation miss that by up to ~1e-8.
        x, y = [], []
        for xv, xc in x_levels:
            for yv, yc in y_levels:
                x += [float(xv)] * (xc * yc)
                y += [float(yv)] * (xc * yc)
        assert _reference_dcor(x, y) == 0.0
        assert distance_correlation(x, y) == 0.0


class TestRanking:
    def test_relevant_features_rank_first(self):
        rng = np.random.default_rng(3)
        n = 600
        X = rng.uniform(size=(n, 5))
        y = 10 * X[:, 2] + 3 * X[:, 4] + rng.normal(0, 0.05, n)
        top = rank_by_distance_correlation(X, y, top_n=2)
        assert set(top) == {2, 4}

    def test_subsample_path_draws_once_per_feature(self):
        # The byte-identity contract of trained models: one
        # rng.choice(n, max_samples, replace=False) per feature and
        # nothing else from the stream.
        rng = np.random.default_rng(11)
        n, features, cap = 900, 5, 300
        X = rng.uniform(size=(n, features))
        y = X[:, 0] + rng.normal(0, 0.1, n)
        used = np.random.default_rng(12)
        rank_by_distance_correlation(X, y, top_n=2, max_samples=cap,
                                     rng=used)
        twin = np.random.default_rng(12)
        for _ in range(features):
            twin.choice(n, size=cap, replace=False)
        assert used.bit_generator.state == twin.bit_generator.state

    def test_full_sample_path_draws_nothing(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(size=(200, 3))
        used = np.random.default_rng(14)
        before = used.bit_generator.state
        rank_by_distance_correlation(X, X[:, 0], top_n=1, max_samples=200,
                                     rng=used)
        assert used.bit_generator.state == before


class TestBackwardsElimination:
    def test_drops_noise_features(self):
        rng = np.random.default_rng(4)
        n = 800
        X = rng.uniform(size=(n, 4))
        y = 5 * X[:, 0] + 2 * X[:, 1] + rng.normal(0, 0.05, n)
        kept = backwards_elimination(X, y, candidates=[0, 1, 2, 3], keep_m=2)
        assert set(kept) == {0, 1}

    def test_keep_m_validation(self):
        with pytest.raises(ValueError):
            backwards_elimination(np.ones((10, 2)), np.ones(10), [0, 1], 0)

    def test_noop_when_already_small(self):
        X = np.random.default_rng(5).uniform(size=(100, 3))
        y = X[:, 0]
        assert backwards_elimination(X, y, [0], keep_m=2) == [0]


class TestSelectFeatures:
    def test_handpicked_always_included(self):
        rng = np.random.default_rng(6)
        n = 500
        X = rng.uniform(size=(n, 6))
        y = 4 * X[:, 1] + rng.normal(0, 0.05, n)
        selected = select_features(X, y, handpicked=(5,), top_n=3, keep_m=2)
        assert 5 in selected
        assert 1 in selected

    def test_result_sorted_and_unique(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(300, 4))
        y = X[:, 0] + X[:, 1]
        selected = select_features(X, y, handpicked=(0,), top_n=3, keep_m=3)
        assert selected == sorted(set(selected))
