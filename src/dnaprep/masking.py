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

All randomness derives from (master_seed, sequence ordinal): each window
draws from its own generator, ``window_rng(master_seed, ordinal, *tag)``,
which equals ``np.random.default_rng((master_seed, ordinal, *tag))``, so a
window's plan does not depend on which windows were processed before it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import KMER, MASK_MODES, MODE_FIXED, MODE_FLAWED  # noqa: F401 - re-exported
from .core import Vocabulary, as_int
from .errors import ConfigError


def check_numbers(config, fields: dict) -> None:
    """Check a frozen config's number fields; ``fields`` maps each to ``int`` or ``(int, float)``.

    An integer field follows :func:`~dnaprep.core.as_int` and is stored as a
    plain int; a real one takes an int or a float. A bool is neither, so that
    a manifest echoes a number.
    """
    for name, types in fields.items():
        value = getattr(config, name)
        if types is int:
            object.__setattr__(config, name, as_int(value, name))
        elif isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{name} must be a real number, got {value!r}")


_NUMBER_FIELDS = {"p": (int, float), "k": int, "master_seed": int, "first_special_id": int, "mask_id": int}


@dataclass(frozen=True)
class MaskConfig:
    """Masking parameters plus the vocabulary facts the ops need."""

    p: float = 0.11
    k: int = 1
    mode: str = MODE_FIXED
    master_seed: int = 0
    first_special_id: int = sys.maxsize  # specials are the tail of the id range; by default none
    mask_id: int = -1

    def __post_init__(self) -> None:
        check_numbers(self, _NUMBER_FIELDS)
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"masking probability must be in [0, 1], got {self.p}")
        if self.k < 1:
            raise ConfigError(f"neighborhood parameter k must be >= 1, got {self.k}")
        if self.mode not in MASK_MODES:
            raise ConfigError(f"unknown masking mode {self.mode!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be >= 0, got {self.master_seed}")

    @classmethod
    def for_vocab(cls, vocab: Vocabulary, **settings) -> "MaskConfig":
        """Derive k (1 for word/BPE), the first special id, and the MASK id; ``settings`` give the rest."""
        if "MASK" not in vocab.specials:
            raise ConfigError("masking requires a MASK special token")
        k = vocab.k if vocab.kind == KMER else 1
        return cls(k=k, first_special_id=vocab.n_nonspecial, mask_id=vocab.mask_id, **settings)


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


def _cover(mask: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Positions within [c+lo, c+hi] of any position c set in ``mask``; needs ``lo <= hi``."""
    n, width = mask.size, hi - lo + 1
    # hits[j] = mask[j - hi], zero outside it; position i needs any of hits[i : i + width]
    hits = np.zeros(n + width - 1, dtype=bool)
    first, stop = max(hi, 0), min(n + hi, hits.size)
    if first < stop:
        hits[first:stop] = mask[first - hi : stop - hi]
    span = 1  # hits[j] holds the OR of the span entries from j; double the span while it fits
    while 2 * span <= width:
        hits = hits[:-span] | hits[span:]
        span *= 2
    return hits[:n] | hits[width - span : width - span + n]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_RNG_CHUNK = 1024  # ordinals per cached table; chunks are aligned, so none straddles 2**32


def _uint32_words(n: int) -> list[int]:
    """``n`` as numpy's SeedSequence reads it: 32-bit words, least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


@lru_cache(maxsize=64)
def _seed_words(master_seed: int, chunk: int, tag: tuple[int, ...]) -> np.ndarray:
    """``SeedSequence((master_seed, o, *tag)).generate_state(4, np.uint64)`` per row.

    Row ``i`` belongs to ordinal ``o = chunk * _RNG_CHUNK + i``. Only the
    ordinal's low word differs between rows, so numpy's entropy mixing
    runs once for the whole chunk, on uint32 arrays whose arithmetic wraps
    as numpy's C code does.
    """
    low, *high = _uint32_words(chunk * _RNG_CHUNK)
    entropy = [
        *_uint32_words(master_seed),
        np.arange(low, low + _RNG_CHUNK, dtype=np.uint32),
        *high,
        *(word for t in tag for word in _uint32_words(t)),
    ]
    entropy = [np.broadcast_to(np.uint32(word), _RNG_CHUNK) for word in entropy]
    entropy += [np.zeros(_RNG_CHUNK, dtype=np.uint32)] * (_POOL - len(entropy))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((_RNG_CHUNK, 2 * _POOL), dtype=np.uint32)
    hash_const = _INIT_B
    for col in range(2 * _POOL):
        value = pool[col % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value = value * np.uint32(hash_const)
        state[:, col] = value ^ (value >> np.uint32(16))
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


@lru_cache(maxsize=1)
def _generator_from_words():
    """A function making ``Generator(PCG64(...))`` from one ``_seed_words`` row.

    Built on first use, so that importing dnaprep does not import
    numpy.random.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        """Hands PCG64 its four precomputed seed words."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(_Words(words)))


def window_rng(master_seed: int, ordinal: int, *tag: int):
    """The generator ``np.random.default_rng((master_seed, ordinal, *tag))``.

    Bit-identical to it, state and draws, but its seed words come from a
    table cached per 1024 consecutive ordinals. Each call returns a new
    generator. Negative arguments raise ``ValueError`` as numpy does.
    """
    chunk, row = divmod(ordinal, _RNG_CHUNK)
    return _generator_from_words()(_seed_words(master_seed, chunk, tag)[row])


def select_targets(tokens, cfg: MaskConfig, seq_ordinal: int) -> np.ndarray:
    """Independently select each non-special position with probability p.

    The draws come from ``window_rng(cfg.master_seed, seq_ordinal)``, one
    per position, so the same tokens at the same ordinal always select
    the same targets.
    """
    tokens = np.asarray(tokens)
    draws = window_rng(cfg.master_seed, seq_ordinal).random(tokens.size)
    picked = (draws < cfg.p) & (tokens < cfg.first_special_id)
    return picked.nonzero()[0]


def neighbor_mask(tokens, m_positions, cfg: MaskConfig) -> MaskPlan:
    """Expand targets to their overlap neighborhood and build the plan."""
    tokens = np.asarray(tokens)
    special = tokens >= cfg.first_special_id
    plain = ~special
    target = np.zeros(tokens.size, dtype=bool)
    target[np.asarray(m_positions, dtype=np.intp)] = True
    target &= plain
    k = cfg.k

    if cfg.mode == MODE_FIXED:
        in_mask = _cover(target, -(k - 1), k - 1) & plain
        masked = in_mask
        label_mask = target
    else:
        masked = _cover(target, 1 - k // 2, k - k // 2)
        in_mask = masked | target  # the algorithm seeds M_in with M itself
        label_mask = in_mask

    return MaskPlan(
        input_ids=np.where(masked, cfg.mask_id, tokens),
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
