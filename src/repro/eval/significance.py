"""Statistical significance of ranking improvements.

The paper stars SUPA results that beat every baseline at ``p < 0.01``
under a t-test.  We implement the paired t-test over per-query
reciprocal ranks (the natural paired statistic two models share on one
test set) on top of :func:`scipy.stats.ttest_rel`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class TTestResult(NamedTuple):
    """Outcome of a paired t-test on per-query statistics."""

    statistic: float
    p_value: float
    mean_difference: float

    def significant(self, alpha: float = 0.01) -> bool:
        """True when the improvement is significant at level ``alpha``.

        One-sided: requires the mean difference to be positive *and* the
        two-sided p-value halved to fall below ``alpha``.
        """
        return self.mean_difference > 0 and (self.p_value / 2.0) < alpha


def paired_t_test(
    ranks_a: Sequence[float], ranks_b: Sequence[float]
) -> TTestResult:
    """Test whether model A ranks ground truth better than model B.

    Both rank arrays must come from the same query sequence.  The test
    statistic is computed on reciprocal ranks, so lower ranks (better)
    give larger values, and ``mean_difference > 0`` means A is better.
    """
    a = 1.0 / np.asarray(ranks_a, dtype=np.float64)
    b = 1.0 / np.asarray(ranks_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"paired test needs equal lengths, got {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("paired test needs at least two queries")
    if np.allclose(a, b):
        return TTestResult(statistic=0.0, p_value=1.0, mean_difference=0.0)
    # Imported here, not at module top: serving processes import
    # repro.eval (via repro.datasets) and must not pay for scipy.stats.
    from scipy import stats

    stat, p = stats.ttest_rel(a, b)
    return TTestResult(
        statistic=float(stat),
        p_value=float(p),
        mean_difference=float(np.mean(a - b)),
    )
