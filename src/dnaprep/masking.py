"""Neighbor-masking plans for masked-token-prediction pretraining data.

Two modes are provided:

* ``fixed`` -- the corrected strategy: a target token is masked together
  with every non-special token within distance k-1 (the positions whose
  k-mers share nucleotides with it), special tokens are never masked, and
  only the originally selected targets are labeled;
* ``flawed`` -- a faithful replication of the historical buggy
  implementation: the neighborhood offsets are ``1-floor(k/2) ..
  k-floor(k/2)``, neighbor masking does not skip special tokens, and
  every input-masked position is labeled.

All randomness derives from (master_seed, sequence ordinal), so plans are
byte-identical regardless of how many worker threads produce them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import Vocabulary
from .errors import ConfigError

MODE_FIXED = "fixed"
MODE_FLAWED = "flawed"
MASK_MODES = (MODE_FIXED, MODE_FLAWED)


@dataclass(frozen=True)
class MaskConfig:
    """Masking parameters plus the vocabulary facts the ops need."""

    p: float = 0.11
    k: int = 1
    mode: str = MODE_FIXED
    master_seed: int = 0
    special_ids: frozenset[int] = frozenset()
    mask_id: int = -1

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"masking probability must be in [0, 1], got {self.p}")
        if self.k < 1:
            raise ConfigError(f"neighborhood parameter k must be >= 1, got {self.k}")
        if self.mode not in MASK_MODES:
            raise ConfigError(f"unknown masking mode {self.mode!r}")

    @classmethod
    def for_vocab(
        cls,
        vocab: Vocabulary,
        p: float = 0.11,
        mode: str = MODE_FIXED,
        master_seed: int = 0,
    ) -> "MaskConfig":
        """Derive k (1 for word/BPE), the special ids, and the MASK id."""
        k = vocab.k if vocab.kind == "kmer" else 1
        return cls(
            p=p,
            k=k,
            mode=mode,
            master_seed=master_seed,
            special_ids=vocab.special_ids,
            mask_id=vocab.mask_id,
        )


@dataclass
class MaskPlan:
    """One sequence's masking outcome, as boolean masks over its positions.

    ``target_mask`` marks the prediction targets selected first;
    ``in_mask`` the (larger) input-masked set after neighbor expansion.
    ``label_mask`` marks every labeled position, whose label is its
    ``original_ids`` entry: it equals ``target_mask`` in fixed mode and
    ``in_mask`` in flawed mode (that equality is the historical bug). In
    fixed mode, and in flawed mode with k >= 2, every position of
    ``in_mask`` carries MASK in ``input_ids``; flawed mode with k = 1
    replicates the printed loop exactly, which leaves the selected target
    itself unmasked. ``special_mask`` marks the special tokens.

    ``m_positions``, ``m_in_positions``, ``labels`` and
    ``special_positions`` are read-only views of the masks as Python
    tuples, dicts and sets, built on each access.
    """

    input_ids: np.ndarray
    original_ids: np.ndarray = field(repr=False)
    target_mask: np.ndarray = field(repr=False)
    in_mask: np.ndarray = field(repr=False)
    label_mask: np.ndarray = field(repr=False)
    special_mask: np.ndarray = field(repr=False)
    mode: str = MODE_FIXED
    k: int = 1
    mask_id: int = -1

    @property
    def m_positions(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.target_mask).tolist())

    @property
    def m_in_positions(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.in_mask).tolist())

    @property
    def labels(self) -> dict[int, int]:
        positions = np.flatnonzero(self.label_mask)
        return dict(zip(positions.tolist(), self.original_ids[positions].tolist()))

    @property
    def special_positions(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.special_mask).tolist())


@lru_cache(maxsize=16)
def _special_lut(special_ids: frozenset[int]) -> np.ndarray:
    lut = np.zeros(max(special_ids, default=-1) + 2, dtype=bool)
    lut[list(special_ids)] = True
    lut.flags.writeable = False
    return lut


def special_mask(tokens: np.ndarray, special_ids) -> np.ndarray:
    """Boolean mask of the positions holding one of ``special_ids``.

    One gather from a lookup table indexed by token id; ids above the
    largest special id clip to the table's final, False entry.
    """
    return _special_lut(frozenset(special_ids)).take(tokens, mode="clip")


def _cover(mask: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Positions within [c+lo, c+hi] of any position c set in ``mask``."""
    if not mask.size:
        return mask.copy()
    # hits[j] is set when some c in [j - (hi - lo), j] is set; i needs c in [i - hi, i - lo]
    hits = np.convolve(mask, np.ones(hi - lo + 1, dtype=bool))
    start = -lo
    if start < 0:
        hits = np.concatenate((np.zeros(-start, dtype=bool), hits))
        start = 0
    return hits[start : start + mask.size]


def select_targets(tokens, cfg: MaskConfig, seq_ordinal: int) -> np.ndarray:
    """Independently select each non-special position with probability p.

    The RNG stream is derived from (master_seed, seq_ordinal), so the
    same sequence at the same ordinal always draws the same targets.
    """
    tokens = np.asarray(tokens)
    rng = np.random.default_rng((cfg.master_seed, seq_ordinal))
    draws = rng.random(tokens.size)
    picked = (draws < cfg.p) & ~special_mask(tokens, cfg.special_ids)
    return np.flatnonzero(picked)


def neighbor_mask(tokens, m_positions, cfg: MaskConfig) -> MaskPlan:
    """Expand targets to their overlap neighborhood and build the plan."""
    tokens = np.asarray(tokens, dtype=np.int64)
    special = special_mask(tokens, cfg.special_ids)
    target = np.zeros(tokens.size, dtype=bool)
    target[np.asarray(m_positions, dtype=np.intp)] = True
    target &= ~special
    k = cfg.k

    if cfg.mode == MODE_FIXED:
        in_mask = _cover(target, -(k - 1), k - 1) & ~special
        masked = in_mask
        label_mask = target
    else:
        masked = _cover(target, 1 - k // 2, k - k // 2)
        in_mask = masked | target  # the algorithm seeds M_in with M itself
        label_mask = in_mask

    input_ids = tokens.copy()
    input_ids[masked] = cfg.mask_id
    return MaskPlan(
        input_ids=input_ids,
        original_ids=tokens,
        target_mask=target,
        in_mask=in_mask,
        label_mask=label_mask,
        special_mask=special,
        mode=cfg.mode,
        k=k,
        mask_id=cfg.mask_id,
    )


def verify_no_leakage(plan: MaskPlan, k: int) -> bool:
    """Check the zero-leakage condition over a plan's labeled targets.

    True iff every non-special position within distance k-1 of any
    labeled target is input-masked, and (fixed mode) no labeled position
    lies outside the selected target set.
    """
    if plan.mode == MODE_FIXED and (plan.label_mask & ~plan.target_mask).any():
        return False
    needed = _cover(plan.label_mask, -(k - 1), k - 1)
    return not (needed & ~plan.special_mask & ~plan.in_mask).any()
