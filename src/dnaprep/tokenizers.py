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
string. BPE encoding applies a vocabulary's merges by rank with a loop of
its own, over the vocabulary's cached merge table: it keeps no pair counts,
only a bucket of positions per rank.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from . import BPE, KMER, N_MODE_AS_UNK, N_MODE_DROP, N_MODE_SEG, N_MODES, WORD
from .core import (
    BASE_CODES,
    MAX_K,
    N_CHAR,
    NUCLEOTIDES,
    BpeMergeTable,
    DnaSequence,
    Vocabulary,
    as_int,
    bpe_vocab_from_merges,
)
from .errors import ConfigError, DataError

@dataclass(frozen=True)
class TokenizerSpec:
    """A vocabulary plus the N-handling mode and sentinel flag, checked once on construction."""

    vocab: Vocabulary
    n_mode: str = N_MODE_AS_UNK
    add_sentinels: bool = False

    def __post_init__(self) -> None:
        check_settings(self.n_mode, self.add_sentinels)
        if self.n_mode == N_MODE_AS_UNK and "UNK" not in self.vocab.specials:
            raise ConfigError("as_unk mode requires an UNK special token")
        if self.add_sentinels and not {"CLS", "SEP"} <= self.vocab.specials.keys():
            raise ConfigError("sentinels require CLS and SEP special tokens")
        if self.n_mode == N_MODE_SEG and not self.vocab.n_run_cover:
            raise ConfigError("seg_n mode requires a vocabulary built with N-run tokens")


def check_settings(n_mode: str, add_sentinels: bool) -> None:
    """The checks of a spec's settings that need no vocabulary; ``PipelineConfig`` runs them too."""
    if n_mode not in N_MODES:
        raise ConfigError(f"unknown n_mode {n_mode!r}")
    if type(add_sentinels) is not bool:
        raise ConfigError(f"add_sentinels must be True or False, got {add_sentinels!r}")


def _codes(bases: str) -> np.ndarray:
    """A read-only array of base codes: A, C, G, T, N -> 0..4 (BPE's merge-space ids of the bases)."""
    return np.frombuffer(bases.encode("ascii").translate(BASE_CODES), dtype=np.uint8)


# A base's k-mer digit on the one-correlate path: its code, with N read as
# T. The block path reads the same digits of A, C, G and T off the ASCII
# bits instead (see _digits), and N gives it 0.
_DIGITS = bytes(min(code, 3) for code in BASE_CODES)
_N_BYTE = ord(N_CHAR)
_WEIGHTS = [4 ** np.arange(k - 1, -1, -1, dtype=np.int32) for k in range(MAX_K + 1)]  # k-mer digit weights

# Inputs up to this many bases get their stride-1 values from one
# np.correlate; longer ones, word stride and any input cut into thread
# spans get them from _kmer_values, a block at a time. Timed on a 2-vCPU
# host, one 6-mer call with sentinels, correlate vs blocks in alternating
# rounds: 2048 bases 29.8 vs 30.1 us N-free (0.99x) and 38.8 vs 43.9 us
# with an N (0.88x); 3072 bases 43.7 vs 35.6 us N-free (1.23x). The
# host's speed drifts between rounds, so the ratios are what carries over.
_CORRELATE_MAX = 2048
# Windows whose values _span_ids builds at once: the digits and the
# narrow window values of a block stay in cache, and only the int32 ids
# span the whole input.
_VALUE_BLOCK = 1 << 16

# An as_unk input's N runs are walked (_n_run_windows) up to a run that
# starts where the runs before it come to more than one per
# _N_WALK_WINDOWS windows read; the windows from there on are flagged as
# a whole. On a 2-vCPU host, 6-mers on 3 Mbp records: a walked run cost 0.74-0.87 us
# and flagging 0.41-0.42 ns per base, so they meet at one run per
# ~1,800-2,100 bases; one run on a 2,048-base input cost 1.7 us walked
# against 7.8 us flagged.
_N_WALK_WINDOWS = 1024

# Fewest windows worth a thread. On a 2-vCPU host, threads=2 ran at
# 0.74-0.89x the serial encoder with 0.5 M-window chunks, 0.84-1.36x with
# 1 M and 1.18-1.21x with 2 M (6-mers, three medians of repeated calls).
_MIN_CHUNK = 1 << 20


def _n_flags(is_n: np.ndarray, k: int, stride: int, m: int) -> np.ndarray:
    """Whether each of the ``m >= 1`` width-k windows at ``stride`` holds an N, from the N positions ``is_n``."""
    span = (m - 1) * stride + 1  # reaches the last window's first base
    # one in-place OR per digit: ORs that double their span allocate a temporary each pass, and
    # with them the chrom_k6 memory child's peak read 143.2 MB against 135.5
    has_n = is_n[:span:stride].copy()
    for j in range(1, k):
        has_n |= is_n[j : j + span : stride]
    return has_n


def _n_runs(raw: bytes) -> Iterator[tuple[int, int]]:
    """Each run of N in the ASCII bases ``raw``, in order, as ``(start, stop)``.

    ``bytes.find`` finds a run's first N, and the run stops at the nearest
    A, C, G or T after it. Each letter's place is looked for again only
    once a run starts past the one last found, so no stretch of bases is
    searched twice for the same letter.
    """
    size = len(raw)
    nearest = [-1, -1, -1, -1]  # where A, C, G and T were last found; ``size`` if nowhere
    start = raw.find(_N_BYTE)
    while start >= 0:
        stop = start + 1
        if stop < size and raw[stop] == _N_BYTE:  # more than one N
            for i, letter in enumerate(b"ACGT"):
                if nearest[i] < start:
                    at = raw.find(letter, start)
                    nearest[i] = size if at < 0 else at
            stop = min(nearest)
        yield start, stop
        start = raw.find(_N_BYTE, stop)


def _n_run_windows(raw: bytes, k: int, stride: int, m: int) -> tuple[list[tuple[int, int]], int]:
    """The windows of each N run in ``raw``, as slices of its ``m`` windows, and the first window left to the mask.

    A run of bases s .. e - 1 touches windows (s - k) // stride + 1 ..
    ceil(e / stride) - 1, clipped to the m windows. The walk gives up at a
    run that starts where the runs before it come to more than one per
    ``_N_WALK_WINDOWS`` windows read (so never at the first run): the
    slices found so far are returned with that run's first window, from
    which the caller flags N windows with :func:`_n_flags`. A walk that
    sees every run returns ``m``. A lone first N and a second run inside
    the first ``_N_WALK_WINDOWS`` windows, as in a short input with
    scattered N, give up before the walk starts: every window is flagged.
    """
    lone = raw.find(_N_BYTE) + 1
    if lone < raw.find(_N_BYTE, lone) < _N_WALK_WINDOWS * stride:
        return [], 0
    runs: list[tuple[int, int]] = []
    for start, stop in _n_runs(raw):
        first = (start - k) // stride + 1
        if first < 0:
            first = 0
        if len(runs) * _N_WALK_WINDOWS > start // stride:
            return runs, first
        last = -(-stop // stride)
        runs.append((first, last if last < m else m))
    return runs, m


def _correlated_ids(raw: bytes, spec: TokenizerSpec, sentinels: bool) -> np.ndarray:
    """The stride-1 ids of the ASCII bases ``raw``, k or more, in as_unk or drop mode, from one np.correlate.

    With sentinels, ``raw`` gains a base at each end, so that the values
    come out with a window more at each end: those two slots take [CLS]
    and [SEP]. Only an input that holds an N does any N work: as_unk
    writes [UNK] over its N runs' windows, or flags every window once
    the runs are too dense for that; drop flags every window.
    """
    vocab = spec.vocab
    k = vocab.k
    if sentinels:
        raw = b"A%bA" % raw
    ids = np.correlate(np.frombuffer(raw.translate(_DIGITS), dtype=np.uint8), _WEIGHTS[k])
    lut = vocab.kmer_value_table
    if lut is not None:
        ids = lut.take(ids)
    if _N_BYTE in raw:
        runs, mask_from = _n_run_windows(raw, k, 1, ids.size) if spec.n_mode == N_MODE_AS_UNK else ([], 0)
        if mask_from < ids.size:
            has_n = _n_flags(np.frombuffer(raw, dtype=np.uint8) == _N_BYTE, k, 1, ids.size)
            if spec.n_mode == N_MODE_DROP:
                if sentinels:
                    has_n[0] = has_n[-1] = False
                ids = ids[~has_n]
            else:
                ids[has_n] = vocab.unk_id
        else:
            for first, last in runs:
                ids[first:last].fill(vocab.unk_id)
    if sentinels:
        ids[0], ids[-1] = vocab.special_id("CLS"), vocab.special_id("SEP")
    return ids


def _digits(raw: np.ndarray) -> np.ndarray:
    """Each ASCII base's k-mer digit, ``((b >> 1) ^ (b >> 2)) & 3``: A, C, G, T -> 0..3, N -> 0.

    Written with ``//``, which numpy vectorizes for uint8 where it does not ``>>``.
    """
    digits = raw // 2
    digits ^= raw // 4
    digits &= 3
    return digits


def _kmer_values(raw: np.ndarray, k: int, stride: int, out: np.ndarray) -> None:
    """Write the base-4 value of every width-k window of the ASCII bases ``raw`` at ``stride`` to ``out``.

    The values of every window of width 1, 2, 4 and 8 up to k come by
    doubling, each in the narrowest unsigned type that holds it (uint8
    up to 4 bases, uint16 up to 8); k's width is then summed from them in
    the order of its binary digits, in the narrowest type that holds k
    bases (up to 12 bases, uint32 in ``out`` itself). An N's digit is
    some digit below 4, so its windows hold a value in range.
    """
    powers = [_digits(raw)]  # powers[i]: the value of every width-2**i window
    for i in range(1, k.bit_length()):
        half = 1 << (i - 1)
        prev = powers[-1]
        cur = np.multiply(prev[:-half], 4**half, dtype=np.uint16 if i == 3 else np.uint8)  # 8 bases: past uint8
        cur |= prev[half:]
        powers.append(cur)
    span = (out.size - 1) * stride + 1  # reaches the last window's first base
    top = k.bit_length() - 1
    if k > 8:
        acc = out.view(np.uint32)
    else:
        acc = np.empty(out.size, dtype=np.uint8 if k <= 4 else np.uint16)
    acc[...] = powers[top][:span:stride]
    first = 1 << top  # the next window part's first base
    for i in reversed(range(top)):
        if k >> i & 1:
            acc *= 4 ** (1 << i)
            acc |= powers[i][first : first + span : stride]
            first += 1 << i
    if k <= 8:
        out[...] = acc


def _span_ids(
    raw: np.ndarray, core: np.ndarray, spec: TokenizerSpec, stride: int, mask_from: int, first: int, last: int
) -> int:
    """Write the ids of windows ``first`` .. ``last - 1`` to ``core`` from ``core[first]`` on; returns how many.

    A block of ``_VALUE_BLOCK`` windows is built at a time, so that only
    ``core`` spans the whole input. A block that reaches past window
    ``mask_from`` flags its N windows: as_unk writes [UNK] over them, and
    drop compacts the block's kept windows in place, down to the span's
    previous kept id.
    """
    vocab = spec.vocab
    k, lut = vocab.k, vocab.kmer_value_table
    kept = first
    for start in range(first, last, _VALUE_BLOCK):
        stop = min(start + _VALUE_BLOCK, last)
        vals = core[start:stop]
        # a view of the ASCII bases: the ufunc work runs GIL-free
        part = raw[start * stride : (stop - 1) * stride + k]
        _kmer_values(part, k, stride, vals)
        if lut is not None:
            lut.take(vals, out=vals)
        has_n = None
        if stop > mask_from:
            is_n = part == _N_BYTE
            if is_n.any():
                has_n = _n_flags(is_n, k, stride, vals.size)
        if spec.n_mode == N_MODE_DROP:
            if has_n is not None:
                vals = vals[~has_n]
            core[kept : kept + vals.size] = vals  # a no-op while nothing was dropped
            kept += vals.size
        else:
            kept = stop
            if has_n is not None:
                vals[has_n] = vocab.unk_id  # every id fits int32 (4**12 + specials)
    return kept - first


def _fixed_width_ids(bases: str, spec: TokenizerSpec, stride: int, sentinels: bool, threads: int = 1) -> np.ndarray:
    """The spec's ids for ``bases`` at ``stride``, between [CLS] and [SEP] if ``sentinels``: the one path-picking step.

    seg_n mode splits an input that holds an N at its N runs and sends
    each N-free stretch back through this step without sentinels. Any
    other input is cut into ``threads`` equal spans of windows, or fewer
    when they hold fewer whole runs of ``_MIN_CHUNK`` windows. An input
    of one span, at least one window and at most ``_CORRELATE_MAX`` bases
    at stride 1 takes :func:`_correlated_ids`; any other takes
    :func:`_window_ids`.
    """
    if spec.n_mode == N_MODE_SEG and N_CHAR in bases:
        return _split_at_n(bases, spec, lambda run: _fixed_width_ids(run, spec, stride, sentinels=False))
    m = (len(bases) - spec.vocab.k) // stride + 1  # windows, where positive
    # no max() or min() on a one-thread call: with them a 447-base 6-mer call took 5.48 us against 5.14
    n_spans = 1 if threads == 1 else min(threads, m // _MIN_CHUNK)
    if stride == 1 and n_spans < 2 and 0 < m and len(bases) <= _CORRELATE_MAX:
        return _correlated_ids(bases.encode("ascii"), spec, sentinels)
    return _window_ids(bases, spec, stride, sentinels, max(m, 0), n_spans)


def _window_ids(bases: str, spec: TokenizerSpec, stride: int, sentinels: bool, m: int, n_spans: int) -> np.ndarray:
    """The block kernel's ids of the ``m`` windows on ``n_spans`` spans, between [CLS] and [SEP] if ``sentinels``.

    Ids are written straight into the returned array, between the slots
    kept for [CLS] and [SEP]: one span on the calling thread, several on a
    thread pool, each filling its own slice of the array, and in drop mode
    each span's kept ids are then moved down next to the previous span's.
    Drop mode finally shrinks the array to the kept ids. An as_unk input's
    N runs are walked first, and [UNK] written over their windows once
    every span is done; the blocks past the point where the walk gave up,
    and every block of a drop input that holds an N, flag their N windows.
    """
    vocab = spec.vocab
    encoded = bases.encode("ascii")
    raw = np.frombuffer(encoded, dtype=np.uint8)
    runs: list[tuple[int, int]] = []
    mask_from = m
    if _N_BYTE in encoded:
        if spec.n_mode == N_MODE_DROP:
            mask_from = 0
        else:
            runs, mask_from = _n_run_windows(encoded, vocab.k, stride, m)
    pad = int(sentinels)
    out = np.empty(m + 2 * pad, dtype=np.int32)
    core = out[pad : pad + m]
    if n_spans < 2:
        kept = _span_ids(raw, core, spec, stride, mask_from, 0, m)
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, so that serial callers never load it

        bounds = [m * i // n_spans for i in range(n_spans + 1)]
        with ThreadPoolExecutor(max_workers=n_spans) as pool:
            counts = list(pool.map(partial(_span_ids, raw, core, spec, stride, mask_from), bounds[:-1], bounds[1:]))
        kept = 0
        for first, count in zip(bounds, counts):
            if first != kept:  # a self-copy of a 3 Mbp record's ids would cost milliseconds
                core[kept : kept + count] = core[first : first + count]  # memmove-like: no temporary
            kept += count
    for first, last in runs:  # as_unk only: nothing was dropped
        core[first:last].fill(vocab.unk_id)
    if pad:
        out[0], out[pad + kept] = vocab.special_id("CLS"), vocab.special_id("SEP")
    if kept < m:
        del core  # no view of ``out`` may outlive the resize
        out.resize(kept + 2 * pad, refcheck=False)
    return out


def kmer_tokenize(seq: DnaSequence, spec: TokenizerSpec) -> np.ndarray:
    """Overlapping k-mer encoding: width-k window, stride 1.

    N-free output length is ``max(0, n - k + 1)`` before sentinels;
    consecutive tokens share a (k-1)-nucleotide overlap.
    """
    if spec.vocab.kind != KMER:
        raise ConfigError(f"kmer_tokenize requires a kmer vocabulary, got {spec.vocab.kind}")
    return _fixed_width_ids(seq.bases, spec, 1, spec.add_sentinels)


def kmer_tokenize_parallel(seq: DnaSequence, spec: TokenizerSpec, threads: int) -> np.ndarray:
    """Multi-threaded k-mer encoding, byte-identical to the serial path.

    It is :func:`kmer_tokenize` with its windows cut into ``threads``
    equal spans, or fewer when the sequence holds fewer whole runs of
    ``_MIN_CHUNK`` windows; each span is encoded on its own thread into
    its own slice of the one output array, so the ids are held once. A
    sequence too short for two spans runs on the calling thread, and so
    does a sequence that holds an N in seg_n mode (segmentation is not
    window-local).
    """
    if spec.vocab.kind != KMER:
        raise ConfigError("parallel encoding is only defined for the kmer tokenizer")
    threads = as_int(threads, "threads")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return _fixed_width_ids(seq.bases, spec, 1, spec.add_sentinels, threads)


def word_tokenize(seq: DnaSequence, spec: TokenizerSpec) -> np.ndarray:
    """Non-overlapping k-mer encoding: stride k, sub-k remainder dropped."""
    if spec.vocab.kind != WORD:
        raise ConfigError(f"word_tokenize requires a word vocabulary, got {spec.vocab.kind}")
    return _fixed_width_ids(seq.bases, spec, spec.vocab.k, spec.add_sentinels)


def tokenize(seq: DnaSequence, spec: TokenizerSpec) -> np.ndarray:
    """Dispatch to the encoder matching ``spec.vocab.kind``."""
    if spec.vocab.kind == KMER:
        return kmer_tokenize(seq, spec)
    if spec.vocab.kind == WORD:
        return word_tokenize(seq, spec)
    return _bpe_ids(seq.bases, spec)


# -- N segmentation ---------------------------------------------------------


def _cover_n_run(length: int, cover: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Ids of the N-run tokens covering ``length`` N's, each as often as fits, longest first."""
    counts = []
    rem = length
    for width, _ in cover:
        reps, rem = divmod(rem, width)
        counts.append(reps)
    if rem:
        widths = [width for width, _ in cover]
        raise DataError(f"N run residue of {rem} not coverable by N-run tokens of widths {widths}")
    return np.repeat(np.array([token_id for _, token_id in cover], dtype=np.int32), counts)


def _split_at_n(bases: str, spec: TokenizerSpec, encode: Callable[[str], np.ndarray]) -> np.ndarray:
    """The spec's ids for ``bases``, split at N: each N-free stretch encoded by ``encode``.

    Each N run (from :func:`_n_runs`) then follows the spec's N mode:
    seg_n covers it with the N-run tokens, as_unk gives one [UNK] per N
    and drop gives nothing. No token spans an N. k-mer and word
    tokenizers take this path in seg_n mode only (their as_unk and drop
    act per window); BPE takes it in every mode.
    """
    vocab = spec.vocab
    head, tail = ([vocab.special_id("CLS")], [vocab.special_id("SEP")]) if spec.add_sentinels else ([], [])
    parts = [np.array(head, dtype=np.int32)]
    done = 0  # the bases before this are encoded
    for start, stop in _n_runs(bases.encode("ascii")):
        if done < start:
            parts.append(encode(bases[done:start]))
        if spec.n_mode == N_MODE_SEG:
            parts.append(_cover_n_run(stop - start, vocab.n_run_cover))
        elif spec.n_mode == N_MODE_AS_UNK:
            parts.append(np.full(stop - start, vocab.unk_id, dtype=np.int32))
        done = stop
    if done < len(bases):
        parts.append(encode(bases[done:]))
    parts.append(np.array(tail, dtype=np.int32))
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
            tok.extend(run.encode("ascii").translate(BASE_CODES))
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
    return bpe_train_sizes(corpus, [target_size])[target_size]


def bpe_train_sizes(corpus: Iterable[DnaSequence], sizes: Iterable[int]) -> dict[int, Vocabulary]:
    """Train once to ``max(sizes)`` and emit the vocabulary at each size.

    Greedy BPE merges depend only on the corpus and the preceding merges,
    so the size-S vocabulary is exactly the S-token prefix of the largest
    training run. Every size must be at least 4, the base alphabet. If
    the corpus runs out of adjacent pairs first, each size not reached
    gets the vocabulary at the achieved size, with a warning.
    """
    wanted = sorted({as_int(size, "target_size") for size in sizes})
    if not wanted:
        raise ConfigError("no sizes requested")
    if wanted[0] < 4:
        raise ConfigError(f"target_size must be >= 4 (the base alphabet), got {wanted[0]}")
    state = _BpeState(_corpus_runs(corpus))
    merges: list[tuple[str, str]] = []
    snaps: dict[int, Vocabulary] = {}
    size = 4
    for want in wanted:
        while size < want and (pair := state.best_pair()) is not None:
            merges.append((state.strings[pair[0]], state.strings[pair[1]]))
            _, fresh = state.merge(pair)
            size += fresh
        if size < want:
            warnings.warn(
                f"corpus exhausted after {len(merges)} merges; "
                f"vocabulary truncated at {size} non-special tokens",
                stacklevel=2,
            )
            return snaps | dict.fromkeys(wanted[len(snaps) :], bpe_vocab_from_merges(merges))
        snaps[want] = bpe_vocab_from_merges(merges)
    return snaps


# -- BPE encoding -------------------------------------------------------------


def _bpe_run_ids(run: str, table: BpeMergeTable) -> np.ndarray:
    """The ids of one N-free run: the lowest-ranked rule present applied left to right, until none is.

    Tokens are merge-space ids in a linked list over the run's positions;
    a merged-away position holds -1, as does the extra last slot of
    ``tok``, so that index -1 (no neighbour) reads as no token. ``buckets``
    holds, per rank, the left position of every adjacency that had that
    rank's pair when it was made: the base pairs from one sort of the
    run's pair codes, later pairs as merges make them. An entry goes stale
    once either side merges on, and is skipped. A heap holds the ranks
    with a bucket. A rule's output is longer than either side, so draining
    a rank never makes that rank's pair again; a lower-ranked pair that it
    makes is drained next.
    """
    codes = _codes(run)
    tok = codes.tolist()
    tok.append(-1)
    n = codes.size
    nxt = list(range(1, n + 1))
    nxt[-1] = -1
    prv = list(range(-1, n))  # prv[n], read as prv[-1], takes the write made when there is no next token
    rules, ranks, shift = table.rules, table.pair_ranks.get, table.shift
    pairs = codes[:-1] * np.uint8(4) + codes[1:]  # 4 * left + right
    order = np.argsort(pairs, kind="stable").tolist()
    buckets: dict[int, list[int]] = {}
    start = 0
    for code, end in enumerate(np.bincount(pairs, minlength=16).cumsum().tolist()):
        rank = ranks((code >> 2) << shift | (code & 3))
        if rank is not None and end > start:
            buckets[rank] = order[start:end]
        start = end
    heap = sorted(buckets)
    pop, push, bucket_of = heapq.heappop, heapq.heappush, buckets.get
    while heap:
        rank = pop(heap)
        a, b, c = rules[rank]
        todo = buckets.pop(rank)
        todo.sort()
        for i in todo:
            if tok[i] != a:
                continue
            j = nxt[i]
            if tok[j] != b:
                continue
            k = nxt[j]
            tok[i] = c
            tok[j] = -1
            nxt[i] = k
            prv[k] = i
            h = prv[i]
            # the two new adjacencies are filed by the same code written out twice:
            # a loop over the two ran about 19% slower per 512-base window
            new = ranks(tok[h] << shift | c)  # a negative key when h is -1
            if new is not None:
                bucket = bucket_of(new)
                if bucket is None:
                    buckets[new] = [h]
                    push(heap, new)
                else:
                    bucket.append(h)
            new = ranks(c << shift | tok[k])  # key -1 when k is -1
            if new is not None:
                bucket = bucket_of(new)
                if bucket is None:
                    buckets[new] = [i]
                    push(heap, new)
                else:
                    bucket.append(i)
    out = []
    i = 0
    while i != -1:
        out.append(tok[i])
        i = nxt[i]
    ids = table.ids[out]
    missing = ids < 0
    if missing.any():
        raise DataError(f"token {table.strings[out[missing.argmax()]]!r} missing from BPE vocabulary")
    return ids


def _bpe_ids(bases: str, spec: TokenizerSpec) -> np.ndarray:
    table = spec.vocab.merge_table
    return _split_at_n(bases, spec, lambda run: _bpe_run_ids(run, table))


def bpe_encode(
    seq: DnaSequence,
    vocab: Vocabulary,
    n_mode: str = N_MODE_AS_UNK,
    add_sentinels: bool = False,
) -> np.ndarray:
    """Encode a sequence with a trained BPE vocabulary.

    N splits the sequence into independently encoded runs; each N itself
    resolves per ``n_mode`` (seg_n requires N-run tokens in the
    vocabulary, which stock BPE vocabularies do not carry). The mode and
    vocabulary are checked as :class:`TokenizerSpec` checks them.
    """
    if vocab.kind != BPE:
        raise ConfigError(f"bpe_encode requires a BPE vocabulary, got {vocab.kind}")
    return _bpe_ids(seq.bases, TokenizerSpec(vocab, n_mode, add_sentinels))


def decode_ids(ids, vocab: Vocabulary) -> str:
    """Concatenate token strings, skipping special tokens (the ids from ``n_nonspecial`` up).

    An id outside the vocabulary is a DataError naming it.
    """
    ids = np.asarray(ids)
    outside = (ids < 0) | (ids >= len(vocab))
    if outside.any():
        raise DataError(f"id {int(ids[outside][0])} is not in the vocabulary of {len(vocab)} ids")
    return "".join([vocab.tokens[i] for i in ids[ids < vocab.n_nonspecial].tolist()])
