"""Percentiles that refuse to extrapolate, plus run-to-run spread helpers."""

from __future__ import annotations

from collections.abc import Sequence

import statistics

import numpy as np

from pipebench.inputs import EPOCH_PAIRS

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_needed(percentile: float) -> int:
    """Smallest sample size with :data:`MIN_SAMPLES_BEYOND` samples beyond ``percentile``."""
    return int(np.ceil(MIN_SAMPLES_BEYOND * 100.0 / (100.0 - percentile) - 1e-9))


def percentile(samples: Sequence[float], percentile: float) -> float:
    """The ``percentile``-th percentile (linear interpolation) of ``samples``.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond it, rather than reporting a tail the sample cannot
    resolve.
    """
    if not 0 < percentile < 100:
        raise ValueError("percentile must be in (0, 100)")
    beyond = len(samples) * (100.0 - percentile) / 100.0
    if beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{percentile:g} needs {samples_needed(percentile)} samples, got {len(samples)}"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), percentile))


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "rel_spread": (q3 - q1) / median if median else float("inf"),
    }


def epoch_rate(busy_s: Sequence[float]) -> float:
    """Pairs per second over whole epochs, given each epoch's summed ``observe`` time.

    Total pairs over total time, not a median of per-epoch rates: the
    machine this runs on slows down for seconds at a time, and the mean
    moves smoothly with the slow share of a run where a median jumps
    between the fast and the slow mode.
    """
    return EPOCH_PAIRS * len(busy_s) / sum(busy_s)
