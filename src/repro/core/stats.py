"""Statistical support for the analyses.

The paper reports point estimates ("in about 9 of 10 cases...").  For a
reproduction it is useful to know how firm such numbers are at simulator
scale, so this module adds:

* bootstrap confidence intervals for arbitrary statistics of the
  lingering-time sample (:func:`bootstrap_ci`);
* a Wilson interval for proportions such as *fraction within 60
  minutes* (:func:`proportion_ci`);
* a two-sample Kolmogorov-Smirnov comparison of per-network lingering
  distributions (:func:`compare_networks`), quantifying Figure 7b's
  visual separation between e.g. the long-lease academic and the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np
from scipy import stats as sps

from repro.core.timing import LingeringAnalysis


@dataclass(frozen=True)
class Interval:
    """A point estimate with a confidence interval.

    ``degenerate`` flags intervals the data could not support: an
    empty sample (NaN estimate, vacuous bounds) or a single-element
    sample (zero-width interval).  Callers that previously had to
    guard against ``ValueError`` on thin fault-injected samples can
    now branch on the flag instead.
    """

    estimate: float
    low: float
    high: float
    confidence: float
    degenerate: bool = False

    def __contains__(self, value: object) -> bool:
        return isinstance(value, (int, float)) and self.low <= value <= self.high

    def __str__(self) -> str:
        suffix = " (degenerate)" if self.degenerate else ""
        return (
            f"{self.estimate:.3f} [{self.low:.3f}, {self.high:.3f}]"
            f" @ {self.confidence:.0%}{suffix}"
        )


def bootstrap_ci(
    sample: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.median,
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Interval:
    """Percentile-bootstrap CI for ``statistic`` over ``sample``.

    Empty and single-element samples yield a *degenerate* interval
    (NaN estimate, or a zero-width interval at the lone value) rather
    than raising: a harsh fault profile can legitimately shrink a
    per-network lingering sample to nothing, and the summary tables
    should render that as "no data", not crash.
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    values = np.asarray(list(sample), dtype=float)
    if values.size == 0:
        nan = float("nan")
        return Interval(nan, nan, nan, confidence, degenerate=True)
    if values.size == 1:
        only = float(values[0])
        return Interval(only, only, only, confidence, degenerate=True)
    rng = np.random.default_rng(seed)
    estimates = np.empty(resamples)
    for index in range(resamples):
        estimates[index] = statistic(rng.choice(values, size=values.size, replace=True))
    alpha = (1 - confidence) / 2
    low, high = np.quantile(estimates, [alpha, 1 - alpha])
    return Interval(float(statistic(values)), float(low), float(high), confidence)


def proportion_ci(successes: int, total: int, *, confidence: float = 0.95) -> Interval:
    """Wilson score interval for a proportion.

    ``total == 0`` yields the vacuous degenerate interval (NaN
    estimate, bounds [0, 1]): with no trials, every proportion is
    consistent with the data.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if total == 0:
        if successes != 0:
            raise ValueError("successes must be within [0, total]")
        return Interval(float("nan"), 0.0, 1.0, confidence, degenerate=True)
    if not 0 <= successes <= total:
        raise ValueError("successes must be within [0, total]")
    z = float(sps.norm.ppf(1 - (1 - confidence) / 2))
    p = successes / total
    denominator = 1 + z**2 / total
    center = (p + z**2 / (2 * total)) / denominator
    margin = z * np.sqrt(p * (1 - p) / total + z**2 / (4 * total**2)) / denominator
    return Interval(p, max(0.0, center - margin), min(1.0, center + margin), confidence)


@dataclass(frozen=True)
class KsComparison:
    """A two-sample KS comparison of lingering distributions."""

    network_a: str
    network_b: str
    statistic: float
    p_value: float


def compare_networks(
    analysis: LingeringAnalysis, network_a: str, network_b: str
) -> KsComparison:
    """KS-compare two networks' lingering-time distributions."""
    sample_a = analysis.by_network.get(network_a, [])
    sample_b = analysis.by_network.get(network_b, [])
    if not sample_a or not sample_b:
        raise ValueError("both networks need lingering data")
    result = sps.ks_2samp(sample_a, sample_b)
    return KsComparison(network_a, network_b, float(result.statistic), float(result.pvalue))


def lingering_summary(
    analysis: LingeringAnalysis,
    *,
    within_minutes: float = 60.0,
    confidence: float = 0.95,
    network: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Interval]:
    """The headline numbers with uncertainty attached.

    Returns intervals for the median lingering time and for the
    fraction of records reverting within ``within_minutes``.  An empty
    analysis (no usable groups — e.g. under a harsh fault profile)
    yields *degenerate* intervals (flagged, NaN estimates) instead of
    raising, so report code renders "no data" rather than crashing.
    """
    values = analysis.by_network.get(network, []) if network else analysis.minutes
    within = sum(1 for value in values if value <= within_minutes)
    return {
        "median_minutes": bootstrap_ci(values, np.median, confidence=confidence, seed=seed),
        f"fraction_within_{int(within_minutes)}m": proportion_ci(
            within, len(values), confidence=confidence
        ),
    }
