"""Auxiliary supervision targets attached to a masking plan.

Four guiding tasks are generated:

* FTM ("frozen tokens melt") labels the neighbor positions that were
  masked purely to prevent leakage -- the input-masked set minus the
  prediction targets. Only meaningful for overlapping tokenizers.
* MST ("masking special token") additionally masks every special token
  in the input and labels those positions with the original special ids.
* SOP ("sentence order prediction") swaps the two halves of the
  non-special token span with a configured probability and emits the
  binary swap label.
* CSP ("complementary strand prediction") labels every strictly unmasked
  non-special position with the reverse complement of its token; labels
  live in the parallel RC label space.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import GUIDING_TASKS, MODE_FIXED, TASK_CSP, TASK_FTM, TASK_MST, TASK_SOP  # noqa: F401 - re-exported
from .core import Vocabulary
from .errors import ConfigError
from .masking import MaskPlan


@dataclass
class GuidingTargets:
    """One guiding task's labeled positions (ascending) and their labels.

    ``positions`` and ``labels`` are read-only tuple and dict views of the
    two arrays, built on each access.
    """

    task: str
    position_array: np.ndarray
    label_array: np.ndarray

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(self.position_array.tolist())

    @property
    def labels(self) -> dict[int, int]:
        return dict(zip(self.position_array.tolist(), self.label_array.tolist()))


def ftm_targets(plan: MaskPlan) -> GuidingTargets:
    """Label the leakage-prevention neighbors: input-masked minus targets."""
    if plan.mode != MODE_FIXED:
        raise ConfigError("FTM targets are defined for fixed-mode plans only")
    if plan.k < 2:
        raise ConfigError("FTM requires an overlapping tokenizer (k >= 2)")
    positions = (plan.in_mask & ~plan.target_mask).nonzero()[0]
    return GuidingTargets(TASK_FTM, positions, plan.original_ids[positions])


def mst_apply(tokens, plan: MaskPlan) -> tuple[np.ndarray, GuidingTargets]:
    """Mask every special position in the plan's input and label it.

    Returns the updated input ids and the targets; a sequence without
    special tokens yields empty targets.
    """
    tokens = np.asarray(tokens)
    positions = plan.special_mask.nonzero()[0]
    updated = plan.input_ids.copy()
    updated[positions] = plan.mask_id
    return updated, GuidingTargets(TASK_MST, positions, tokens[positions])


def sop_transform(tokens, reverse_prob: float, rng, first_special_id: int = sys.maxsize) -> tuple[np.ndarray, int]:
    """Swap the two halves of the non-special span with probability ``reverse_prob``.

    Ids from ``first_special_id`` up are special (by default none). The
    span is split at floor(len/2) and the halves exchanged; sentinels keep
    their positions. Fewer than two non-special tokens is an identity
    transform with label 0. Every call draws exactly one number from
    ``rng``, first, and only a call that swaps scans the tokens for the
    span. Returns a new array either way.
    """
    if not 0.0 <= reverse_prob <= 1.0:
        raise ConfigError(f"reverse_prob must be in [0, 1], got {reverse_prob}")
    tokens = np.asarray(tokens)
    out = tokens.copy()
    if rng.random() >= reverse_prob:
        return out, 0
    body = (tokens < first_special_id).nonzero()[0]
    if body.size < 2:
        return out, 0
    half = body.size // 2
    out[body] = tokens[np.concatenate((body[half:], body[:half]))]
    return out, 1


def csp_targets(plan: MaskPlan, vocab: Vocabulary) -> GuidingTargets:
    """Label every strictly unmasked non-special position with its RC token."""
    positions = (~(plan.in_mask | plan.special_mask)).nonzero()[0]
    originals = plan.original_ids[positions]
    labels = vocab.rc_labels[originals]
    missing = labels < 0
    if missing.any():
        vocab.rc_label(int(originals[missing][0]))  # raises: no complement and no [CULL]
    return GuidingTargets(TASK_CSP, positions, labels)
