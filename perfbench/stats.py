"""The tail-percentile rule of the benchmark."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of n distinct samples lie strictly above their q-th
    percentile (numpy's default, linear interpolation): those ranked after
    the interpolation point."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def highest_tail_percentile(n: int, ladder=(99, 95, 90, 75, 50)):
    """The highest percentile on the ladder with at least MIN_BEYOND samples
    beyond it, or None when n is too small for any of them."""
    for q in sorted(ladder, reverse=True):
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None
