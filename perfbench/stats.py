"""Median and quartile spread, the statistics every reported figure uses."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``; fewer than
    two values, or a zero median, give 0.
    """
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0
