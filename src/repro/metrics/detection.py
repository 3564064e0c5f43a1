"""Detection-quality metrics.

The convergence speed of the detection aggregate: the number of
investigation rounds the paper reports on the x-axis of its figures.
"""

from __future__ import annotations

from typing import Optional, Sequence


def convergence_round(
    trajectory: Sequence[float],
    threshold: float,
    below: bool = True,
) -> Optional[int]:
    """First round at which the trajectory crosses ``threshold``.

    ``below=True`` looks for values ≤ threshold (detection of an intruder:
    Detect falling towards −1), ``below=False`` for values ≥ threshold.
    Returns ``None`` when the threshold is never crossed.
    """
    for index, value in enumerate(trajectory):
        if below and value <= threshold:
            return index
        if not below and value >= threshold:
            return index
    return None
