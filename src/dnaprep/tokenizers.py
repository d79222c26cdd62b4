"""Sequence encoders: overlapping k-mer, non-overlapping word, and BPE.

Three "N" handling modes are supported for every tokenizer:

* ``as_unk`` -- any token window containing N becomes ``[UNK]``;
* ``drop``   -- such windows are skipped;
* ``seg_n``  -- the sequence is segmented at N boundaries, non-N stretches
  are tokenized normally, and N runs are greedily covered by the longest
  N-run token that fits (requires a vocabulary built with N tokens).

The k-mer and word encoders are numpy-vectorized (a 6-mer pass over a
chromosome-scale sequence runs at tens of MB/s) and are exactly
reproducible: the same input and spec always produce the same ids.

BPE training is deterministic: the most frequent adjacent pair is merged
at every step, occurrences are counted non-overlapping left-to-right
within each N-delimited run, and frequency ties are broken by the
lexicographic order of the concatenated pair string, then of the left
string. BPE encoding applies a vocabulary's merges by rank through the
same merge loop.
"""

from __future__ import annotations

import heapq
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import (
    BPE,
    KMER,
    N_CHAR,
    NUCLEOTIDES,
    WORD,
    DnaSequence,
    Vocabulary,
    bpe_vocab_from_merges,
)
from .errors import ConfigError, DataError

N_MODE_AS_UNK = "as_unk"
N_MODE_DROP = "drop"
N_MODE_SEG = "seg_n"
N_MODES = (N_MODE_AS_UNK, N_MODE_DROP, N_MODE_SEG)

_N_CODE = 4
_CODE_TABLE = bytes.maketrans((NUCLEOTIDES + N_CHAR).encode("ascii"), bytes(range(_N_CODE + 1)))

_ACGT_SET = frozenset(NUCLEOTIDES)
_BASE_VALUE = {c: i for i, c in enumerate(NUCLEOTIDES)}
_N_RUNS = re.compile(f"{N_CHAR}+|[^{N_CHAR}]+")


@dataclass
class TokenizerSpec:
    """A vocabulary plus the N-handling mode and sentinel flag."""

    vocab: Vocabulary
    n_mode: str = N_MODE_AS_UNK
    add_sentinels: bool = False

    def __post_init__(self) -> None:
        if self.n_mode not in N_MODES:
            raise ConfigError(f"unknown n_mode {self.n_mode!r}")
        if self.n_mode == N_MODE_SEG and not self.vocab.n_run_tokens():
            raise ConfigError("seg_n mode requires a vocabulary built with N-run tokens")
        if self.n_mode == N_MODE_AS_UNK and "UNK" not in self.vocab.specials:
            raise ConfigError("as_unk mode requires an UNK special token")


def _codes(bases: str) -> np.ndarray:
    """A read-only array of base codes: A, C, G, T, N -> 0..4."""
    return np.frombuffer(bases.encode("ascii").translate(_CODE_TABLE), dtype=np.uint8)


def _wrap_sentinels(ids: np.ndarray, vocab: Vocabulary, add: bool) -> np.ndarray:
    if not add:
        return ids
    return np.concatenate(
        (
            np.asarray([vocab.special_id("CLS")], dtype=ids.dtype),
            ids,
            np.asarray([vocab.special_id("SEP")], dtype=ids.dtype),
        )
    )


def _kmer_value(token: str) -> int:
    value = 0
    for ch in token:
        value = value * 4 + _BASE_VALUE[ch]
    return value


_IDENTITY = "identity"


def _value_lut(vocab: Vocabulary):
    """Map the base-4 value of a k-mer to its id in ``vocab``.

    Returns None for a complete k-mer vocabulary (the mapping is the
    identity, so callers can skip the gather); for a culled vocabulary,
    values whose token was removed map to the [CULL] id.
    """
    if vocab._kmer_value_lut is not None:
        cached = vocab._kmer_value_lut
        return None if cached is _IDENTITY else cached
    k = vocab.k
    size = 4**k
    pure = sum(1 for t in vocab.tokens[: vocab.n_nonspecial] if set(t) <= _ACGT_SET)
    complete = (
        pure == size
        and vocab.tokens[0] == "A" * k
        and vocab.tokens[size - 1] == "T" * k
        and _kmer_value(vocab.tokens[size // 3]) == size // 3
    )
    if complete:
        vocab._kmer_value_lut = _IDENTITY
        return None
    fill = vocab.cull_id
    if fill is None:
        raise DataError("vocabulary is missing k-mers and has no [CULL] token")
    lut = np.full(size, fill, dtype=np.int32)
    for tok, tid in vocab._token_to_id.items():
        if len(tok) == k and set(tok) <= _ACGT_SET:
            lut[_kmer_value(tok)] = tid
    vocab._kmer_value_lut = lut
    return lut


_VALUE_BLOCK = 1 << 16  # stride-1 windows whose values _window_values builds at once


def _kmer_values(codes: np.ndarray, k: int) -> np.ndarray:
    """Base-4 value of every width-k window of ``codes``, N read as T."""
    # 4**12 < 2**31, so int32 holds any k <= 12 window value
    clean = np.minimum(codes, 3, dtype=np.int32)
    vals = clean[: clean.size - k + 1].copy()
    for j in range(1, k):
        vals <<= 2
        vals += clean[j : j + vals.size]
    return vals


def _window_values(codes: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Base-4 value of each width-k window plus a contains-N flag.

    N positions contribute an arbitrary digit to the value; every flagged
    window is overridden or dropped by the caller before use.
    """
    n = codes.size
    if stride == 1:
        m = n - k + 1
        if m <= 0:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=bool)
        n_flags = codes == _N_CODE
        has_n = n_flags[:m].copy()
        for j in range(1, k):
            has_n |= n_flags[j : j + m]
        del n_flags
        if m <= _VALUE_BLOCK:
            return _kmer_values(codes, k), has_n
        # Longer records go a block at a time, so that no record-long int32
        # copy of the codes exists: the values and flags take 5 bytes per base.
        vals = np.empty(m, dtype=np.int32)
        for start in range(0, m, _VALUE_BLOCK):
            vals[start : start + _VALUE_BLOCK] = _kmer_values(codes[start : start + _VALUE_BLOCK + k - 1], k)
        return vals, has_n
    m = n // k
    if m <= 0:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=bool)
    grid = codes[: m * k].reshape(m, k).astype(np.int32)
    has_n = (grid == _N_CODE).any(axis=1)
    np.minimum(grid, 3, out=grid)
    powers = 4 ** np.arange(k - 1, -1, -1, dtype=np.int32)
    return grid @ powers, has_n


def _ids_from_codes(codes: np.ndarray, spec: TokenizerSpec, stride: int) -> np.ndarray:
    vocab = spec.vocab
    vals, has_n = _window_values(codes, vocab.k, stride)
    lut = _value_lut(vocab)
    core = vals if lut is None else lut[vals]
    if spec.n_mode == N_MODE_AS_UNK:
        if has_n.any():
            core[has_n] = vocab.unk_id  # every id fits int32 (4**12 + specials)
    else:
        core = core[~has_n]
    return core


def _fixed_width_ids(bases: str, spec: TokenizerSpec, stride: int) -> np.ndarray:
    if spec.n_mode == N_MODE_SEG:
        core = _segmented_ids(bases, spec.vocab, stride)
    else:
        core = _ids_from_codes(_codes(bases), spec, stride)
    return _wrap_sentinels(core, spec.vocab, spec.add_sentinels)


def kmer_tokenize(seq: DnaSequence, spec: TokenizerSpec) -> np.ndarray:
    """Overlapping k-mer encoding: width-k window, stride 1.

    N-free output length is ``max(0, n - k + 1)`` before sentinels;
    consecutive tokens share a (k-1)-nucleotide overlap.
    """
    if spec.vocab.kind != KMER:
        raise ConfigError(f"kmer_tokenize requires a kmer vocabulary, got {spec.vocab.kind}")
    return _fixed_width_ids(seq.bases, spec, stride=1)


def word_tokenize(seq: DnaSequence, spec: TokenizerSpec) -> np.ndarray:
    """Non-overlapping k-mer encoding: stride k, sub-k remainder dropped."""
    if spec.vocab.kind != WORD:
        raise ConfigError(f"word_tokenize requires a word vocabulary, got {spec.vocab.kind}")
    return _fixed_width_ids(seq.bases, spec, stride=spec.vocab.k)


def tokenize(seq: DnaSequence, spec: TokenizerSpec) -> np.ndarray:
    """Dispatch to the encoder matching ``spec.vocab.kind``."""
    if spec.vocab.kind == KMER:
        return kmer_tokenize(seq, spec)
    if spec.vocab.kind == WORD:
        return word_tokenize(seq, spec)
    return bpe_encode(seq, spec.vocab, n_mode=spec.n_mode, add_sentinels=spec.add_sentinels)


# -- N segmentation ---------------------------------------------------------


def _iter_n_runs(bases: str) -> Iterator[tuple[int, int, bool]]:
    """Yield (start, end, is_n_run) for maximal N / non-N stretches."""
    for m in _N_RUNS.finditer(bases):
        yield m.start(), m.end(), bases[m.start()] == N_CHAR


def _cover_n_run(length: int, priority: tuple[str, ...]) -> list[str]:
    out: list[str] = []
    rem = length
    for tok in priority:
        width = len(tok)
        reps = rem // width
        if reps:
            out.extend([tok] * reps)
            rem -= reps * width
    if rem:
        raise DataError(
            f"N run residue of {rem} not coverable by priority tokens {list(priority)}"
        )
    return out


def _segmented_ids(bases: str, vocab: Vocabulary, stride: int) -> np.ndarray:
    """seg_n core: tokenize non-N stretches with the tokenizer's own stride."""
    priority = vocab.n_run_tokens()
    lut = _value_lut(vocab)
    parts: list[np.ndarray] = []
    for start, end, is_n in _iter_n_runs(bases):
        if is_n:
            covered = _cover_n_run(end - start, priority)
            parts.append(np.array([vocab.id_of(t) for t in covered], dtype=np.int32))
        else:
            vals, _ = _window_values(_codes(bases[start:end]), vocab.k, stride)
            parts.append(vals if lut is None else lut[vals])
    if not parts:
        return np.empty(0, dtype=np.int32)
    return np.concatenate(parts)


# -- BPE training -------------------------------------------------------------


class _BpeState:
    """Linked-list corpus indexed by pair positions, with a lazy heap.

    Token positions live in flat lists with prev/next links; -1 marks a
    run boundary, and a merged-away position holds token -1. The one
    stored fact is ``positions[pair]``: the left position of every
    adjacency of ``pair``. Counts derive from it (see ``count``). Every
    pair with a nonzero count has a heap entry
    ``(-count, concat, left_string, pair)`` whose recorded count is at
    least its current count; ``best_pair`` refreshes entries that
    overstate it.
    """

    def __init__(self, runs: Iterable[str]):
        tok: list[int] = []
        prv: list[int] = []
        nxt: list[int] = []
        for run in runs:
            start, end = len(tok), len(tok) + len(run)
            tok.extend(run.encode("ascii").translate(_CODE_TABLE))
            prv.extend(range(start - 1, end - 1))
            nxt.extend(range(start + 1, end + 1))
            prv[start] = nxt[end - 1] = -1
        self.tok = tok
        self.prv = prv
        self.nxt = nxt
        self.strings = list(NUCLEOTIDES)
        self.str_to_id = {s: i for i, s in enumerate(self.strings)}
        self.positions: dict[tuple[int, int], set[int]] = {}
        for i, j in enumerate(nxt):
            if j != -1:
                self.positions.setdefault((tok[i], tok[j]), set()).add(i)
        self.heap: list = []
        for pair in self.positions:
            self._push(pair)

    def count(self, pair: tuple[int, int]) -> int:
        """Non-overlapping left-to-right occurrences of ``pair``.

        For distinct sides that is every adjacency. A self-pair (t, t)
        counts (edges + 1) // 2 per maximal chain of (t, t) edges, which
        is floor(run_len / 2) per maximal run of t.
        """
        occ = self.positions.get(pair)
        if not occ:
            return 0
        if pair[0] != pair[1]:
            return len(occ)
        prv, nxt = self.prv, self.nxt
        total = 0
        for p in occ:
            if prv[p] in occ:
                continue  # not the head edge of its chain
            edges = 0
            while p in occ:
                edges += 1
                p = nxt[p]
            total += (edges + 1) // 2
        return total

    def _push(self, pair: tuple[int, int]) -> None:
        n = self.count(pair)
        if n:
            left = self.strings[pair[0]]
            heapq.heappush(self.heap, (-n, left + self.strings[pair[1]], left, pair))

    def best_pair(self) -> tuple[int, int] | None:
        heap = self.heap
        while heap:
            neg, concat, left, pair = heap[0]
            n = self.count(pair)
            if n == -neg:
                return pair
            heapq.heappop(heap)
            if 0 < n < -neg:
                heapq.heappush(heap, (-n, concat, left, pair))
        return None

    def _unlink(self, pos: int, pair: tuple[int, int]) -> None:
        occ = self.positions.get(pair)
        if occ is not None:
            occ.discard(pos)
            if not occ:
                del self.positions[pair]

    def merge(self, pair: tuple[int, int]) -> tuple[int, bool]:
        """Apply one merge left to right everywhere; returns (merged id, was fresh token)."""
        a, b = pair
        out = self.strings[a] + self.strings[b]
        c = self.str_to_id.get(out)
        fresh = c is None
        if fresh:
            c = len(self.strings)
            self.strings.append(out)
            self.str_to_id[out] = c
        tok, prv, nxt, positions = self.tok, self.prv, self.nxt, self.positions
        grown: set[tuple[int, int]] = set()
        for i in sorted(positions.pop(pair, ())):
            j = nxt[i]
            if tok[i] != a or tok[j] != b:
                continue  # the previous occurrence took one of these tokens
            left, right = prv[i], nxt[j]
            tok[i], tok[j], nxt[i] = c, -1, right
            if left != -1:
                self._unlink(left, (tok[left], a))
                new = (tok[left], c)
                positions.setdefault(new, set()).add(left)
                grown.add(new)
            if right != -1:
                self._unlink(j, (b, tok[right]))
                prv[right] = i
                new = (c, tok[right])
                positions.setdefault(new, set()).add(i)
                grown.add(new)
        for new in grown:
            self._push(new)
        return c, fresh


def _corpus_runs(corpus: Iterable[DnaSequence]) -> Iterator[str]:
    for seq in corpus:
        for run in seq.bases.split(N_CHAR):
            if run:
                yield run


def bpe_train(corpus: Iterable[DnaSequence], target_size: int) -> Vocabulary:
    """Train a BPE vocabulary of ``target_size`` non-special tokens.

    Exactly ``target_size - 4`` merges are performed on top of the
    single-nucleotide alphabet; no merge crosses an N or a sequence
    boundary. If the corpus runs out of adjacent pairs first, the
    vocabulary is returned at the achieved size with a warning.
    """
    return _train(corpus, target_size, snapshot_sizes=())[0]


def bpe_train_sizes(corpus: Iterable[DnaSequence], sizes: Iterable[int]) -> dict[int, Vocabulary]:
    """Train once to ``max(sizes)`` and emit the vocabulary at each size.

    Greedy BPE merges depend only on the corpus and the preceding merges,
    so the size-S vocabulary is exactly the S-token prefix of the largest
    training run.
    """
    wanted = sorted(set(sizes))
    if not wanted:
        raise ConfigError("no sizes requested")
    return _train(corpus, wanted[-1], snapshot_sizes=tuple(wanted))[1]


def _train(
    corpus: Iterable[DnaSequence],
    target_size: int,
    snapshot_sizes: tuple[int, ...],
) -> tuple[Vocabulary, dict[int, Vocabulary]]:
    if target_size < 4:
        raise ConfigError(f"target_size must be >= 4 (the base alphabet), got {target_size}")
    state = _BpeState(_corpus_runs(corpus))
    merges: list[tuple[str, str]] = []
    snaps: dict[int, Vocabulary] = {}
    size = 4
    if size in snapshot_sizes:
        snaps[size] = bpe_vocab_from_merges([])
    while size < target_size:
        pair = state.best_pair()
        if pair is None:
            warnings.warn(
                f"corpus exhausted after {len(merges)} merges; "
                f"vocabulary truncated at {size} non-special tokens",
                stacklevel=2,
            )
            break
        left, right = state.strings[pair[0]], state.strings[pair[1]]
        _, fresh = state.merge(pair)
        merges.append((left, right))
        if fresh:
            size += 1
            if size in snapshot_sizes:
                snaps[size] = bpe_vocab_from_merges(merges)
    vocab = bpe_vocab_from_merges(merges)
    for want in snapshot_sizes:
        if want not in snaps:
            snaps[want] = vocab  # exhausted before reaching this size
    return vocab, snaps


# -- BPE encoding -------------------------------------------------------------


def _merge_ranks(vocab: Vocabulary) -> dict[tuple[str, str], int]:
    ranks: dict[tuple[str, str], int] = {}
    for rank, pair in enumerate(vocab.merges):
        ranks.setdefault(pair, rank)
    return ranks


class _BpeEncoder(_BpeState):
    """The same index and merge loop, applying a vocabulary's merges.

    The present pair with the lowest merge rank merges next, so the heap
    holds ``(rank, pair)`` entries; an entry is stale once its pair has
    no positions left. Construction encodes the runs to completion.
    """

    def __init__(self, runs: Iterable[str], ranks: dict[tuple[str, str], int]):
        self.ranks = ranks
        super().__init__(runs)
        while (pair := self.best_pair()) is not None:
            self.merge(pair)

    def _push(self, pair: tuple[int, int]) -> None:
        rank = self.ranks.get((self.strings[pair[0]], self.strings[pair[1]]))
        if rank is not None:
            heapq.heappush(self.heap, (rank, pair))

    def best_pair(self) -> tuple[int, int] | None:
        heap = self.heap
        while heap:
            pair = heap[0][1]
            if pair in self.positions:
                return pair
            heapq.heappop(heap)
        return None


def bpe_encode(
    seq: DnaSequence,
    vocab: Vocabulary,
    n_mode: str = N_MODE_AS_UNK,
    add_sentinels: bool = False,
) -> np.ndarray:
    """Encode a sequence with a trained BPE vocabulary.

    N splits the sequence into independently encoded runs; each N itself
    resolves per ``n_mode`` (seg_n requires N-run tokens in the
    vocabulary, which stock BPE vocabularies do not carry).
    """
    if vocab.kind != BPE:
        raise ConfigError(f"bpe_encode requires a BPE vocabulary, got {vocab.kind}")
    if n_mode not in N_MODES:
        raise ConfigError(f"unknown n_mode {n_mode!r}")
    if n_mode == N_MODE_SEG and not vocab.n_run_tokens():
        raise ConfigError("seg_n mode requires a vocabulary built with N-run tokens")
    ranks = _merge_ranks(vocab)
    ids: list[int] = []
    for start, end, is_n in _iter_n_runs(seq.bases):
        if is_n:
            if n_mode == N_MODE_AS_UNK:
                ids.extend([vocab.unk_id] * (end - start))
            elif n_mode == N_MODE_SEG:
                ids.extend(
                    vocab.id_of(t) for t in _cover_n_run(end - start, vocab.n_run_tokens())
                )
            continue
        state = _BpeEncoder([seq.bases[start:end]], ranks)
        table = [vocab._token_to_id.get(s, vocab.cull_id) for s in state.strings]
        for t in state.tok:
            if t >= 0:
                if table[t] is None:
                    raise DataError(f"token {state.strings[t]!r} missing from BPE vocabulary")
                ids.append(table[t])
    return _wrap_sentinels(np.asarray(ids, dtype=np.int32), vocab, add_sentinels)


def decode_ids(ids, vocab: Vocabulary) -> str:
    """Concatenate token strings, skipping special tokens."""
    return "".join(vocab.tokens[i] for i in np.asarray(ids) if not vocab.is_special(int(i)))


# -- parallel encoding ---------------------------------------------------------

# Fewest windows worth a thread. On a 2-vCPU host, threads=2 ran at
# 0.74-0.89x the serial encoder with 0.5 M-window chunks, 0.84-1.36x with
# 1 M and 1.18-1.21x with 2 M (6-mers, three medians of repeated calls).
_MIN_CHUNK = 1 << 20


def kmer_tokenize_parallel(seq: DnaSequence, spec: TokenizerSpec, threads: int) -> np.ndarray:
    """Chunked multi-threaded k-mer encoding, byte-identical to the serial path.

    The sequence is split into equal window-aligned chunks overlapping by
    k-1 bases: ``threads`` of them, or fewer when the sequence holds fewer
    whole spans of ``_MIN_CHUNK`` windows. Each chunk is encoded
    independently and the results are concatenated in order. A sequence
    too short for two chunks, and seg_n mode (segmentation is not
    window-local), take the serial encoder.
    """
    if spec.vocab.kind != KMER:
        raise ConfigError("parallel encoding is only defined for the kmer tokenizer")
    k = spec.vocab.k
    m = len(seq.bases) - k + 1
    chunks = min(threads, m // _MIN_CHUNK)
    if chunks <= 1 or spec.n_mode == N_MODE_SEG:
        return kmer_tokenize(seq, spec)
    inner = TokenizerSpec(spec.vocab, spec.n_mode, add_sentinels=False)
    codes = _codes(seq.bases)
    step = -(-m // chunks)
    bounds = [(s, min(s + step, m)) for s in range(0, m, step)]

    def chunk(span: tuple[int, int]) -> np.ndarray:
        s, e = span
        # numpy view, no copy: the heavy ufunc work runs GIL-free
        return _ids_from_codes(codes[s : e + k - 1], inner, stride=1)

    with ThreadPoolExecutor(max_workers=chunks) as pool:
        parts = list(pool.map(chunk, bounds))
    return _wrap_sentinels(np.concatenate(parts), spec.vocab, spec.add_sentinels)
