"""Feature selection for WCET models (paper Algorithm 1).

The offline phase selects, per signal-processing task, the subset of
vRAN-state features with the most impact on the task runtime:

1. rank features by **distance correlation** with the runtime
   (Székely-Rizzo; implemented from scratch in O(n log n) — the paper
   used R's ``Rfast::dcor``) and keep the top ``N``;
2. prune to ``M`` features with **backwards elimination** on a held-out
   split of an OLS model;
3. union the result with hand-picked, domain-expert features.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "MAX_DCOR_SAMPLES",
    "distance_correlation",
    "rank_by_distance_correlation",
    "backwards_elimination",
    "select_features",
]

#: Default subsample size of the distance-correlation ranking.  The
#: O(n log n) statistic needs no cap for speed or memory; it is kept so
#: the subsample draws, and hence every trained model, stay the same.
MAX_DCOR_SAMPLES = 1500


class _Margin(NamedTuple):
    """The one-sample parts of the distance statistics of a 1-D sample."""

    order: np.ndarray     # stable argsort of the sample
    values: np.ndarray    # shifted and scaled sample, in sample order
    row_sums: np.ndarray  # a_i. = sum_j |v_i - v_j| of values, by sample
    total: float          # a.. = sum_i a_i.
    dvar: Fraction        # n^4 * dVar^2_n


def _margin(v: np.ndarray) -> Optional[_Margin]:
    """Sort-and-prefix-sum parts of ``v``; None for a constant sample.

    Distances are invariant to shift and positive scale, so the sample
    is shifted to its middle sample point and scaled by a power of two.
    Both are exact for integer-valued and near-equal samples and keep
    the prefix sums free of large-offset cancellation.
    """
    n = len(v)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    span = ordered[-1] - ordered[0]
    if span == 0:
        return None
    exponent = int(np.frexp(span)[1])
    values = np.ldexp(v - ordered[n // 2], -exponent)
    ordered = values[order]
    # sum_j |x_k - x_j| over the sorted sample: the k points below x_k
    # and the n - k - 1 above it, from exclusive prefix sums.
    below = np.cumsum(ordered) - ordered
    value_sum = below[-1] + ordered[-1]
    row_sums = np.empty(n)
    row_sums[order] = (ordered * (2 * np.arange(n) - n)
                       + (value_sum - 2 * below))
    a_total = float(row_sums.sum())
    # dVar is dCov of the sample with itself: S = sum_ij (x_i - x_j)^2.
    self_cross = (2 * n * float(values @ values)
                  - 2 * float(value_sum) ** 2)
    dvar = _scaled_dcov2(n, self_cross, float(row_sums @ row_sums),
                         a_total, a_total)
    return _Margin(order, values, row_sums, a_total, dvar)


def _scaled_dcov2(n: int, cross: float, row_dot: float,
                  a_total: float, b_total: float) -> Fraction:
    """``n^4 * dCov^2_n`` from its parts, combined in exact arithmetic.

    ``dCov^2_n = S/n^2 - 2 sum_i a_i. b_i. / n^3 + a.. b.. / n^4`` with
    ``S = sum_ij |x_i - x_j| |y_i - y_j|``.  The three terms cancel to
    zero when the sample's joint distribution factorizes, so they are
    added as exact rationals: the only rounding left is in the parts.
    """
    return (n * n * Fraction(cross) - 2 * n * Fraction(row_dot)
            + Fraction(a_total) * Fraction(b_total))


def _concordant_sum(keys: np.ndarray, xs: np.ndarray,
                    ys: np.ndarray) -> float:
    """``sum (x_j - x_i)(y_j - y_i)`` over ``i < j``, ``keys[i] < keys[j]``.

    ``keys`` is a permutation of ``0..n-1``.  Merge-sort tree: at the
    level with block width ``w`` every position pairs with its sibling
    block, and each element of a right block meets the left block's
    elements with smaller keys through prefix sums, in key order, of
    the weights ``1, y, x, xy``.  Each pair ``i < j`` meets at exactly
    one level, so ``log2 n`` vectorized O(n) passes cover them all.
    The positions are padded to a power of two with keys above every
    real key, so padding never precedes a real element in key order,
    and every block is full.
    """
    n = len(keys)
    levels = (n - 1).bit_length()
    size = 1 << levels
    padded_keys = np.arange(size)
    padded_keys[:n] = keys
    # All positions in key order: the one block pair of the top level.
    position = np.empty(size, dtype=np.intp)
    position[padded_keys] = np.arange(size)
    px = np.zeros(size)
    px[:n] = xs
    py = np.zeros(size)
    py[:n] = ys
    level_sums = []
    for level in reversed(range(levels)):
        # Positions grouped by block pair, in key order within a pair.
        right = (position >> level) & 1 == 1
        x = px[position]
        y = py[position]
        left = (~right).astype(np.float64)
        below = np.cumsum(
            np.stack((left, left * y, left * x, left * x * y))
            .reshape(4, -1, 2 << level), axis=2).reshape(4, -1)
        pairs = x * y * below[0] - x * below[1] - y * below[2] + below[3]
        level_sums.append(float(pairs[right & (position < n)].sum()))
        # Split every pair into its two blocks, keeping key order: each
        # block is full, so both halves reshape to one row per pair.
        pairs_of = position.reshape(-1, 2 << level)
        sides = right.reshape(pairs_of.shape)
        position = np.stack(
            (pairs_of[~sides].reshape(-1, 1 << level),
             pairs_of[sides].reshape(-1, 1 << level)), axis=1).reshape(-1)
    # Summed finest level first, the order of a bottom-up walk.
    total = 0.0
    for level_sum in reversed(level_sums):
        total += level_sum
    return total


def _cross_sum(x: _Margin, y: _Margin) -> float:
    """``S = sum_ij |x_i - x_j| |y_i - y_j|`` in O(n log n).

    In x order, a pair ``i < j`` contributes ``(x_j - x_i)(y_j - y_i)``
    with the sign of ``y_j - y_i``: the pairs concordant in y count
    positively, the rest negatively.  Summed over all pairs that
    product is ``n sum xy - sum x sum y``, so ``S/2`` is twice the
    concordant sum minus that.  Ties in either coordinate contribute
    zero, so stable y ranks serve as keys.
    """
    n = len(x.order)
    ranks = np.empty(n, dtype=np.intp)
    ranks[y.order] = np.arange(n)
    xs = x.values[x.order]
    ys = y.values[x.order]
    concordant = _concordant_sum(ranks[x.order], xs, ys)
    every_pair = n * float(xs @ ys) - float(xs.sum()) * float(ys.sum())
    return 2.0 * (2.0 * concordant - every_pair)


def _dcor(x: Optional[_Margin], y: Optional[_Margin]) -> float:
    """Distance correlation from two margins (None: a constant sample)."""
    if x is None or y is None:
        return 0.0
    n = len(x.order)
    dcov = _scaled_dcov2(n, _cross_sum(x, y),
                         float(x.row_sums @ y.row_sums), x.total, y.total)
    if dcov <= 0:
        return 0.0
    dcor2 = float(dcov) / np.sqrt(float(x.dvar) * float(y.dvar))
    return float(min(1.0, np.sqrt(dcor2)))


def _samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if len(x) < 2:
        raise ValueError("need at least two samples")
    return x, y


def distance_correlation(
    x: np.ndarray,
    y: np.ndarray,
    max_samples: int = MAX_DCOR_SAMPLES,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Distance correlation between two 1-D samples, in [0, 1].

    The exact V-statistic of Székely, Rizzo & Bakirov, computed in
    O(n log n) time and O(n) memory with the sort-based algorithm of
    Huo & Székely ("Fast computing for distance covariance",
    Technometrics 2016).  A constant sample gives exactly 0.0.

    Inputs longer than ``max_samples`` are first subsampled with one
    ``rng.choice`` draw (a fresh ``default_rng(0)`` when ``rng`` is
    None).  Speed and memory no longer need that cap; it stays so the
    draws, the selected features and every trained model remain
    identical to those of the earlier O(n^2) statistic.
    """
    x, y = _samples(x, y)
    if len(x) > max_samples:
        rng = rng if rng is not None else np.random.default_rng(0)
        idx = rng.choice(len(x), size=max_samples, replace=False)
        x, y = x[idx], y[idx]
    return _dcor(_margin(x), _margin(y))


def rank_by_distance_correlation(
    X: np.ndarray,
    y: np.ndarray,
    top_n: int,
    max_samples: int = MAX_DCOR_SAMPLES,
    rng: Optional[np.random.Generator] = None,
) -> list[int]:
    """Indices of the ``top_n`` features most dCor-correlated with y."""
    X = np.asarray(X, dtype=np.float64)
    scores = [
        distance_correlation(X[:, j], y, max_samples=max_samples, rng=rng)
        for j in range(X.shape[1])
    ]
    order = np.argsort(scores)[::-1]
    return [int(j) for j in order[:top_n]]


def _validation_mse(
    X: np.ndarray, y: np.ndarray, columns: Sequence[int],
    split: float = 0.75,
) -> float:
    """Held-out MSE of an OLS model restricted to ``columns``."""
    n = len(y)
    cut = max(1, int(n * split))
    train_x = np.column_stack([X[:cut, list(columns)],
                               np.ones(cut)])
    test_x = np.column_stack([X[cut:, list(columns)],
                              np.ones(n - cut)])
    coeffs, *_ = np.linalg.lstsq(train_x, y[:cut], rcond=None)
    pred = test_x @ coeffs
    return float(np.mean((y[cut:] - pred) ** 2))


def backwards_elimination(
    X: np.ndarray,
    y: np.ndarray,
    candidates: Sequence[int],
    keep_m: int,
) -> list[int]:
    """Greedy backwards elimination down to ``keep_m`` features.

    Repeatedly drops the feature whose removal hurts held-out OLS error
    the least.  Deterministic given its inputs.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    current = list(candidates)
    if keep_m < 1:
        raise ValueError("keep_m must be >= 1")
    while len(current) > keep_m:
        best_error = None
        best_drop = None
        for drop in current:
            trial = [c for c in current if c != drop]
            error = _validation_mse(X, y, trial)
            if best_error is None or error < best_error:
                best_error = error
                best_drop = drop
        current.remove(best_drop)
    return current


def select_features(
    X: np.ndarray,
    y: np.ndarray,
    handpicked: Sequence[int] = (),
    top_n: int = 8,
    keep_m: int = 5,
    max_samples: int = MAX_DCOR_SAMPLES,
    rng: Optional[np.random.Generator] = None,
) -> list[int]:
    """Algorithm 1's feature pipeline: dCor top-N -> back-elim M -> ∪ hand."""
    ranked = rank_by_distance_correlation(X, y, top_n,
                                          max_samples=max_samples, rng=rng)
    pruned = backwards_elimination(X, y, ranked, min(keep_m, len(ranked)))
    selected = sorted(set(pruned) | set(handpicked))
    return selected
