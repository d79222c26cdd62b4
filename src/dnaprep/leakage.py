"""Information-leakage analysis for overlapping k-mer masking.

When a run of m consecutive k-mer tokens is masked, the flanking unmasked
tokens still reveal the first k-1 and last k-1 nucleotides of the run's
span. The closed-form leakage ratio is::

    r = 100%              if m <= k - 1   (the run is fully determined)
    r = 100 (k-1) / m     otherwise

and the per-token candidate space for the i-th masked token (1-based) is::

    |V(i)| = 4 ** (k - min(k, max(0, k-i) + max(0, k-m+i-1)))

This module provides both the closed forms and a brute-force enumeration
oracle that validates them by explicit counting, plus a helper that
applies the closed form run-by-run over a concrete masking plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import NUCLEOTIDES, as_int
from .errors import ResourceLimitError
from .masking import MaskPlan

UNKNOWN = "?"
_ENUM_BUDGET = 16  # max unknown positions: 4**16 assignments


def _check_km(k: int, m: int) -> tuple[int, int]:
    """``k`` and ``m`` as plain ints, each an integer >= 1; anything else is a ValueError."""
    k, m = as_int(k, "k", ValueError), as_int(m, "m", ValueError)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return k, m


def leakage_ratio(k: int, m: int) -> float:
    """Percent of a masked run's content revealed by overlap, in [0, 100]."""
    return _ratio(*_check_km(k, m))


def _ratio(k: int, m: int) -> float:
    """:func:`leakage_ratio` of a checked ``k`` and ``m``."""
    return 100.0 if m <= k - 1 else 100.0 * (k - 1) / m


def max_entropy_ratio(k: int, m: int) -> float:
    """Fraction of the run's maximum prediction entropy that survives."""
    k, m = _check_km(k, m)
    if m <= k - 1:
        return 0.0
    return (m - k + 1) / m


def candidate_space_size(k: int, m: int, i: int) -> int:
    """Number of values the i-th masked token (1-based) can still take."""
    k, m = _check_km(k, m)
    i = as_int(i, "token index i", ValueError)
    if not 1 <= i <= m:
        raise ValueError(f"token index i must be in [1, {m}], got {i}")
    known = min(k, max(0, k - i) + max(0, k - m + i - 1))
    return 4 ** (k - known)


@dataclass(frozen=True)
class LeakageReport:
    """Closed-form leakage summary for one (k, m) configuration."""

    k: int
    m: int
    ratio_percent: float
    candidate_sizes: tuple[int, ...]
    max_entropy_ratio: float


def leakage_report(k: int, m: int) -> LeakageReport:
    k, m = _check_km(k, m)
    return LeakageReport(
        k=k,
        m=m,
        ratio_percent=leakage_ratio(k, m),
        candidate_sizes=tuple(candidate_space_size(k, m, i) for i in range(1, m + 1)),
        max_entropy_ratio=max_entropy_ratio(k, m),
    )


# -- brute-force oracle --------------------------------------------------------


def masked_run_window(
    k: int,
    m: int,
    left_context: int = 1,
    right_context: int = 1,
    bases: str | None = None,
) -> str:
    """Nucleotide window for a masked run of m tokens, unknowns marked '?'.

    The window spans ``left_context + m + right_context`` overlapping
    tokens. A position is unknown exactly when no unmasked token covers
    it -- plain coverage bookkeeping, independent of the closed-form
    analysis this window is used to validate. Zero context on a side
    models a run touching the sequence boundary.
    """
    k, m = _check_km(k, m)
    total_tokens = left_context + m + right_context
    n = total_tokens + k - 1
    if bases is None:
        bases = (NUCLEOTIDES * -(-n // 4))[:n]
    elif len(bases) != n:
        raise ValueError(f"window needs {n} bases, got {len(bases)}")
    masked = range(left_context, left_context + m)
    covered = [False] * n
    for t in range(total_tokens):
        if t in masked:
            continue
        for offset in range(k):
            covered[t + offset] = True
    return "".join(b if covered[pos] else UNKNOWN for pos, b in enumerate(bases))


def enumerate_consistent_completions(window: str, k: int) -> int:
    """Count assignments to '?' positions consistent with every known k-mer.

    Every k-mer of the window that contains no '?' is an observation; an
    assignment is consistent when all observations are reproduced. The
    count is found by explicit enumeration (budget: 16 unknowns).
    """
    k = as_int(k, "k", ValueError)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    unknown = [pos for pos, ch in enumerate(window) if ch == UNKNOWN]
    if len(unknown) > _ENUM_BUDGET:
        raise ResourceLimitError(
            f"{len(unknown)} unknown positions exceed the enumeration budget of {_ENUM_BUDGET}"
        )
    observed = [
        (pos, window[pos : pos + k])
        for pos in range(len(window) - k + 1)
        if UNKNOWN not in window[pos : pos + k]
    ]
    chars = list(window)
    count = 0
    for assignment in itertools.product(NUCLEOTIDES, repeat=len(unknown)):
        for pos, base in zip(unknown, assignment):
            chars[pos] = base
        filled = "".join(chars)
        if all(filled[pos : pos + k] == kmer for pos, kmer in observed):
            count += 1
    return count


# -- plan-level application ------------------------------------------------------


def run_leakage(positions, k: int) -> float:
    """Length-weighted mean leakage over the maximal runs of consecutive target ``positions``.

    ``positions`` are ascending and distinct. Each run of length m
    contributes leakage_ratio(k, m) weighted by m. An empty target set
    has zero leakage by definition.
    """
    positions = np.asarray(positions)
    if positions.size == 0:
        return 0.0
    k, _ = _check_km(k, 1)  # once, not per run
    ends = np.flatnonzero(np.diff(positions) != 1)  # the last index of every run but the final one
    runs = np.diff(ends, prepend=-1, append=positions.size - 1)
    return sum(m * _ratio(k, m) for m in runs.tolist()) / positions.size


def empirical_plan_leakage(plan: MaskPlan, k: int) -> float:
    """Length-weighted mean leakage over a plan's maximal target runs (see :func:`run_leakage`)."""
    return run_leakage(np.flatnonzero(plan.target_mask), k)
