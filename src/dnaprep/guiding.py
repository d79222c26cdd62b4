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

from dataclasses import dataclass

import numpy as np

from .core import Vocabulary
from .errors import ConfigError
from .masking import MODE_FIXED, MaskPlan, special_mask

TASK_FTM = "ftm"
TASK_MST = "mst"
TASK_SOP = "sop"
TASK_CSP = "csp"
GUIDING_TASKS = (TASK_FTM, TASK_MST, TASK_SOP, TASK_CSP)

LABEL_SPACE_V = "vocab"
LABEL_SPACE_RC = "rc_vocab"
LABEL_SPACE_BINARY = "binary"


@dataclass
class GuidingTargets:
    """One guiding task's labeled positions (ascending) and their labels.

    ``positions`` and ``labels`` are read-only tuple and dict views of the
    two arrays, built on each access.
    """

    task: str
    position_array: np.ndarray
    label_array: np.ndarray
    label_space: str

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
    positions = np.flatnonzero(plan.in_mask & ~plan.target_mask)
    return GuidingTargets(TASK_FTM, positions, plan.original_ids[positions], LABEL_SPACE_V)


def mst_apply(tokens, plan: MaskPlan) -> tuple[np.ndarray, GuidingTargets]:
    """Mask every special position in the plan's input and label it.

    Returns the updated input ids and the targets; a sequence without
    special tokens yields empty targets.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    positions = np.flatnonzero(plan.special_mask)
    updated = plan.input_ids.copy()
    updated[positions] = plan.mask_id
    return updated, GuidingTargets(TASK_MST, positions, tokens[positions], LABEL_SPACE_V)


def sop_transform(tokens, reverse_prob: float, rng, special_ids=frozenset()) -> tuple[np.ndarray, int]:
    """Swap the two halves of the non-special span with probability ``reverse_prob``.

    The span is split at floor(len/2) and the halves exchanged; sentinels
    keep their positions. Fewer than two non-special tokens is an
    identity transform with label 0.
    """
    if not 0.0 <= reverse_prob <= 1.0:
        raise ConfigError(f"reverse_prob must be in [0, 1], got {reverse_prob}")
    tokens = np.asarray(tokens, dtype=np.int64)
    out = tokens.copy()
    body = np.flatnonzero(~special_mask(tokens, special_ids))
    if body.size < 2 or rng.random() >= reverse_prob:
        return out, 0
    half = body.size // 2
    order = np.concatenate((body[half:], body[:half]))
    out[body] = tokens[order]
    return out, 1


def rc_label_lut(vocab: Vocabulary) -> np.ndarray:
    """``vocab.rc_label(i)`` for every id, -1 where it raises (special ids, missing complements).

    Built on first use and kept on the vocabulary.
    """
    if vocab._rc_label_lut is None:
        lut = np.full(len(vocab), -1, dtype=np.int64)
        for token_id in range(vocab.n_nonspecial):
            try:
                lut[token_id] = vocab.rc_label(token_id)
            except ValueError:
                pass
        lut.flags.writeable = False
        vocab._rc_label_lut = lut
    return vocab._rc_label_lut


def csp_targets(plan: MaskPlan, vocab: Vocabulary) -> GuidingTargets:
    """Label every strictly unmasked non-special position with its RC token."""
    positions = np.flatnonzero(~(plan.in_mask | plan.special_mask))
    originals = plan.original_ids[positions]
    labels = rc_label_lut(vocab)[originals]
    missing = labels < 0
    if missing.any():
        vocab.rc_label(int(originals[missing][0]))  # raises: no complement and no [CULL]
    return GuidingTargets(TASK_CSP, positions, labels, LABEL_SPACE_RC)
