"""Token frequency and entropy analytics, importance bucketing, and the stats CSV.

Frequencies are exact counts over the tokenized corpus; the successor
distribution (and its Shannon entropy, in bits) is computed within
sequences only, never across record boundaries. Per-token prediction
accuracies are consumed from an external file -- this toolkit never
computes them. Culling a vocabulary by these statistics is
:func:`dnaprep.core.cull_vocab`.

Successor pairs are counted a buffer at a time. A full buffer is sorted,
run-counted and merged into the table of distinct pairs by
:func:`_merge_pairs` on one executor worker (numpy's sort releases the
GIL) while the caller reads and tokenizes the next records; the last,
partial buffer goes through the same function on the caller. At most one
buffer is in flight, and every count is an exact integer sum, so the
table is the same as counted in series. The caller builds each batch's
arrays, because a worker thread's malloc arena keeps freed blocks
resident. No thread outlives the call, and a corpus below one buffer
starts none.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import SPECIAL_TOKENS, Vocabulary
from .errors import DataError
from .tokenizers import TokenizerSpec, tokenize

# Successor keys gathered across records before one sort counts them into
# the table of distinct pairs: the buffer never holds more than this many
# keys plus one record's. A full buffer is counted on the worker while the
# next one fills, so up to two such buffers are held at once.
_PAIR_BUFFER = 1 << 20


@dataclass
class TokenStats:
    token_id: int
    token: str
    frequency: int
    rel_freq: float
    context_entropy: float
    accuracy: float | None = None


def compute_token_stats(
    corpus,
    spec: TokenizerSpec,
    accuracy: dict[int, float] | None = None,
) -> list[TokenStats]:
    """Count tokens and successor entropy over a corpus.

    Returns one row per vocabulary id, ordered by id. ``rel_freq`` is
    normalized over non-special emissions. ``accuracy`` maps token ids to
    externally measured prediction accuracies; unknown ids are rejected
    before the corpus is read.
    """
    vocab = spec.vocab
    size = len(vocab)
    if accuracy is not None:
        unknown = sorted(set(accuracy) - set(range(size)))
        if unknown:
            raise DataError(f"accuracy file references unknown token ids: {unknown}")
    freq = np.zeros(size, dtype=np.int64)
    # the narrowest unsigned type holding every successor key left * size + right
    key_type = np.min_scalar_type(size * size)
    # the distinct successor keys counted so far, sorted, and their counts
    keys = np.empty(0, dtype=key_type)
    counts = np.empty(0, dtype=np.int64)
    buffer: list[np.ndarray] = []
    buffered = 0
    pool = merging = None
    try:
        for seq in corpus:
            # each record-long array is dropped as soon as it is used, so none
            # is held while the next record is read or the buffer is counted
            ids = tokenize(seq, spec)
            del seq
            if ids.size:
                # every other token is the left side of one successor pair,
                # counted with the pairs below
                freq[ids[-1]] += 1
            if ids.size >= 2:
                pairs = _successor_keys(ids, size, key_type)
                del ids
                buffer.append(pairs)
                buffered += pairs.size
                del pairs
                if buffered >= _PAIR_BUFFER:
                    batch = _batch(buffer)
                    buffered = 0
                    if pool is None:
                        from concurrent.futures import ThreadPoolExecutor  # here, so that small corpora never load it

                        pool = ThreadPoolExecutor(max_workers=1)
                    else:
                        keys, counts = merging.result()  # at most one buffer in flight
                    merging = pool.submit(_merge_pairs, keys, counts, batch)
    finally:
        # no thread outlives the call; an error from the corpus is the one raised
        if pool is not None:
            pool.shutdown()
    if merging is not None:
        keys, counts = merging.result()  # raises the worker's error, if any
    if buffer:
        keys, counts = _merge_pairs(keys, counts, _batch(buffer))
    entropy = np.zeros(size, dtype=np.float64)
    if keys.size:
        lefts = (keys // size).astype(np.intp)  # sorted, so each row's successors are contiguous
        counts = counts.astype(np.float64)
        totals = np.bincount(lefts, weights=counts, minlength=size)  # exact: integers below 2**53
        freq += totals.astype(np.int64)
        probs = counts / totals[lefts]
        terms = probs * np.log2(probs)
        sums = np.bincount(lefts, weights=terms, minlength=size)
        # bincount adds a row's terms one by one, as .sum() does up to 7
        # terms; from 8 terms on .sum() adds pairwise, so those rows are
        # summed again by .sum() to keep every bit of the result.
        widths = np.bincount(lefts, minlength=size)
        ends = np.cumsum(widths)
        for left in np.flatnonzero(widths >= 8):
            sums[left] = terms[ends[left] - widths[left] : ends[left]].sum()
        # 0 - x, not -x: a row whose one successor has p = 1 sums to 0.0,
        # and its entropy is +0.0, not -0.0
        entropy = 0.0 - sums
    nonspecial_total = int(freq[: vocab.n_nonspecial].sum())
    rel_freq = freq / (nonspecial_total if nonspecial_total else 1)
    accuracies = [None] * size if accuracy is None else [accuracy.get(i) for i in range(size)]
    return [
        TokenStats(*row)
        for row in zip(range(size), vocab.tokens, freq.tolist(), rel_freq.tolist(), entropy.tolist(), accuracies)
    ]


def _successor_keys(ids: np.ndarray, size: int, key_type: np.dtype) -> np.ndarray:
    """The key left * size + right of every successor pair in ``ids``, as ``key_type``.

    A key type as wide as the ids (uint32 keys of int32 ids: k = 4..7,
    or up to 65,535 BPE tokens) takes the keys in the ids' own type and
    views them as ``key_type``: every key is below 2**32, so a key that
    wraps past 2**31 in int32 has its own bits. Otherwise both passes
    cast the ids as they go, so no record-long copy of them is made;
    unsafe casting lets the int32 ids into a uint8 or uint16 key type
    (k <= 3).
    """
    if key_type.itemsize == ids.itemsize:
        keys = np.multiply(ids[:-1], size)
        keys += ids[1:]
        return keys.view(key_type)
    keys = np.multiply(ids[:-1], size, dtype=key_type, casting="unsafe")
    np.add(keys, ids[1:], out=keys, dtype=key_type, casting="unsafe")
    return keys


def _run_counts(keys: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and how many times each occurs.

    ``edges`` is scratch space of ``keys.size + 1`` bools, its contents unused.
    """
    edges[0] = edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)  # where each run starts, then the end
    return keys[bounds[:-1]], np.diff(bounds)


def _batch(buffer: list[np.ndarray]) -> list[np.ndarray]:
    """The buffered keys as one array and its scratch edges, emptying ``buffer``.

    The caller builds each batch, so that the worker allocates nothing of
    a record's size: a worker thread's malloc arena keeps freed blocks
    resident.
    """
    keys = buffer.pop() if len(buffer) == 1 else np.concatenate(buffer)
    buffer.clear()
    return [keys, np.empty(keys.size + 1, dtype=bool)]


def _merge_pairs(keys: np.ndarray, counts: np.ndarray, batch: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Count a batch of successor keys into the sorted (keys, counts) table.

    ``batch`` is [the keys, the scratch edges for :func:`_run_counts`]. It
    is emptied once both are used, so they are freed before the merge. The
    keys are sorted in place.
    """
    batch[0].sort()
    new, new_counts = _run_counts(*batch)
    batch.clear()
    merged, inverse = np.unique(np.concatenate((keys, new)), return_inverse=True)
    # float sums of integers below 2**53 are exact
    totals = np.bincount(inverse, weights=np.concatenate((counts, new_counts)), minlength=merged.size)
    return merged, totals.astype(np.int64)


def load_accuracy_csv(path, vocab: Vocabulary) -> dict[int, float]:
    """Read a token_id,accuracy CSV (a token_id header on line 1 optional).

    Rows whose cells are all blank are skipped. Any other row that is not
    an integer id and a finite accuracy, or that repeats an id, is a
    DataError naming its line.
    """
    out: dict[int, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not "".join(row).strip() or reader.line_num == 1 and row[0].strip().lower() == "token_id":
                continue
            try:
                tid, acc = int(row[0]), float(row[1])
            except (IndexError, ValueError):
                raise DataError(
                    f"{path}: line {reader.line_num}: expected token_id,accuracy, got {','.join(row)!r}"
                ) from None
            if not math.isfinite(acc):
                raise DataError(f"{path}: line {reader.line_num}: accuracy {row[1].strip()!r} is not finite")
            if tid in out:
                raise DataError(f"{path}: line {reader.line_num}: token id {tid} appears twice")
            out[tid] = acc
    offenders = [tid for tid in out if not 0 <= tid < len(vocab)]
    if offenders:
        raise DataError(f"accuracy file references unknown token ids: {offenders}")
    return out


def bucket_tokens(
    stats: list[TokenStats],
    freq_edges: tuple[float, float] | None = None,
    acc_edge: float | None = None,
) -> dict[int, tuple[str, str]]:
    """Assign every non-special token to a (frequency, accuracy) bucket.

    Frequency splits at the tertiles of rel_freq by default, accuracy at
    its median; explicit edges override either. Values equal to an edge
    go to the lower band, so an all-equal column lands in one band.
    """
    rows = [s for s in stats if _is_body_row(s)]
    if any(s.accuracy is None for s in rows):
        missing = [s.token_id for s in rows if s.accuracy is None]
        raise DataError(f"accuracy required for bucketing; missing ids: {missing[:10]}")
    freqs = np.array([s.rel_freq for s in rows])
    accs = np.array([s.accuracy for s in rows])
    if freq_edges is None:
        freq_edges = tuple(np.quantile(freqs, [1 / 3, 2 / 3]))
    if acc_edge is None:
        acc_edge = float(np.median(accs))
    lo, hi = freq_edges
    out: dict[int, tuple[str, str]] = {}
    for row in rows:
        if row.rel_freq <= lo:
            band = "low"
        elif row.rel_freq <= hi:
            band = "mid"
        else:
            band = "high"
        out[row.token_id] = (band, "low" if row.accuracy <= acc_edge else "high")
    return out


def _is_body_row(s: TokenStats) -> bool:
    return s.token not in SPECIAL_TOKENS.values()


def write_stats_csv(path, stats: list[TokenStats], buckets: dict[int, tuple[str, str]] | None = None) -> None:
    """Emit the stats table with the fixed column order, as ``csv.writer`` writes it with ``"\n"`` line ends.

    Each row is one f-string and the table is written in one call; only a
    token holding a ``,``, ``"``, ``\r`` or ``\n`` goes through ``csv`` for
    its quoting. A 4,101-row 6-mer table took 6.2 ms so, against 9.7 ms
    row by row through ``csv.writer``.
    """
    buckets = buckets or {}
    lines = ["token_id,token,frequency,rel_freq,context_entropy,accuracy,freq_band,acc_band\n"]
    for s in stats:
        fb, ab = buckets.get(s.token_id, ("", ""))
        acc = "" if s.accuracy is None else f"{s.accuracy:.10g}"
        token = _csv_cell(s.token) if _CSV_SPECIAL.search(s.token) else s.token
        lines.append(
            f"{s.token_id},{token},{s.frequency},{s.rel_freq:.10g},{s.context_entropy:.10g},{acc},{fb},{ab}\n"
        )
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


_CSV_SPECIAL = re.compile('[,"\r\n]')  # the characters csv's minimal quoting may act on


def _csv_cell(text: str) -> str:
    """``text`` as one cell of a ``csv.writer`` row with ``"\n"`` line ends."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([text])
    return line.getvalue()[:-1]
