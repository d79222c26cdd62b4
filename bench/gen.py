"""Seeded input generator for the dnaprep benchmark.

Every input the benchmark feeds to dnaprep is made here from the run's
seed: the same seed gives byte-identical FASTA files. The seed draws the
bases, the N-run and soft-mask placement and the record lengths; the
shape of each workload (its size, the share of N, the run-length ranges)
is fixed, so the figures of different seeds stay comparable. Lengths
that would move a rate by their spread alone are drawn stratified, one
per equal slice of their range.

``properties`` measures each generated input back, so every run prints
what its input really was, not only what was asked for.
"""

from __future__ import annotations

import numpy as np

K = 6
WINDOW = 512
LINE_WIDTH = 60

MIXED_BASES = 250_000  # guide_k6
MIXED_N_SHARE = 0.02
N_RUN_MIN, N_RUN_MAX = 1, 100
LONG_N_FREE = 16_384  # one N-free stretch this long ends WINDOW bases before the input does

CHROM_LENGTHS = (3_000_000, 2_500_000, 2_000_000)
CHROM_GAPS = (2, 4)  # assembly gaps per chromosome, inclusive range
CHROM_GAP_LEN = (10_000, 100_000)
CHROM_SINGLE_N_EVERY = 5_000  # mean spacing of scattered single Ns
CHROM_CLEAN_HEAD = 200_000  # no N here, so the BPE slices are one N-free run on every seed

_ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)
_N = ord("N")


def _random_bases(rng: np.random.Generator, n: int) -> np.ndarray:
    return _ACGT[rng.integers(0, 4, size=n)]


def _soft_mask(rng: np.random.Generator, arr: np.ndarray, mean_run: int) -> None:
    """Lowercase about half of ``arr`` in runs of mean length ``mean_run``."""
    n = arr.size
    cuts = np.cumsum(rng.geometric(1.0 / mean_run, size=2 * n // mean_run + 8))
    cuts = cuts[cuts < n]
    state = np.zeros(n + 1, dtype=np.int8)
    state[cuts] = 1
    lower = (np.cumsum(state[:n]) + int(rng.integers(0, 2))) % 2 == 1
    arr[lower] |= 0x20  # ASCII lowercase; N becomes n, which dnaprep also accepts


def _place_n_runs(rng, arr: np.ndarray, share: float) -> None:
    """Overwrite non-touching runs of 1-100 N so that about ``share`` of ``arr`` is N."""
    n = arr.size
    count = int(round(share * n / ((N_RUN_MIN + N_RUN_MAX) / 2)))
    lengths = rng.integers(N_RUN_MIN, N_RUN_MAX + 1, size=count)
    slots = np.sort(rng.choice(n - int(lengths.sum()), size=count, replace=False))
    starts = slots + np.concatenate(([0], np.cumsum(lengths)[:-1]))
    for start, length in zip(starts.tolist(), lengths.tolist()):
        arr[start : start + length] = _N


def _records_from(arr: np.ndarray, lengths: list[int], prefix: str) -> list[tuple[str, bytes]]:
    out = []
    pos = 0
    for i, length in enumerate(lengths):
        out.append((f"{prefix}{i} len={length}", arr[pos : pos + length].tobytes()))
        pos += length
    return out


def mixed_records(seed: int) -> list[tuple[str, bytes]]:
    """Many records of mixed length: the guide_k6 input.

    Record 0 is shorter than k and the records after it are log-uniform
    between 30 and 1500 bases; the last seven span several windows, and
    the very last holds an N-free stretch of LONG_N_FREE bases. About 2% of
    bases are N in runs of 1-100 and about half are soft-masked lowercase.
    """
    rng = np.random.default_rng((seed, 1))
    multi = (WINDOW * (2 + np.arange(6) + rng.random(6)) * 1.5).astype(int).tolist()
    tail = multi + [LONG_N_FREE + 2 * WINDOW]
    lengths = [K - 3]
    total = K - 3 + sum(tail)
    while total < MIXED_BASES:
        length = int(np.exp(rng.uniform(np.log(30), np.log(1500))))
        lengths.append(length)
        total += length
    lengths += tail
    arr = _random_bases(rng, total)
    _place_n_runs(rng, arr, MIXED_N_SHARE)
    long_start = total - LONG_N_FREE - WINDOW
    arr[long_start : long_start + LONG_N_FREE] = _random_bases(rng, LONG_N_FREE)
    _soft_mask(rng, arr, mean_run=400)
    return _records_from(arr, lengths, "mix")


def chrom_records(seed: int) -> list[tuple[str, bytes]]:
    """A few multi-Mbp chromosomes: the chrom_k6 input.

    Each has 2-4 assembly gaps of 10-100 kb of N plus single Ns every
    ~5 kb on average, none of them in the first CHROM_CLEAN_HEAD bases,
    and about half of it is soft-masked.
    """
    rng = np.random.default_rng((seed, 2))
    out = []
    for i, length in enumerate(CHROM_LENGTHS):
        arr = _random_bases(rng, length)
        singles = rng.integers(CHROM_CLEAN_HEAD, length, size=length // CHROM_SINGLE_N_EVERY)
        arr[singles] = _N
        for _ in range(int(rng.integers(CHROM_GAPS[0], CHROM_GAPS[1] + 1))):
            gap = int(rng.integers(CHROM_GAP_LEN[0], CHROM_GAP_LEN[1] + 1))
            start = int(rng.integers(CHROM_CLEAN_HEAD, length - gap))
            arr[start : start + gap] = _N
        _soft_mask(rng, arr, mean_run=2_000)
        out.append((f"chr{i + 1} len={length}", arr.tobytes()))
    return out


def write_fasta(path, records: list[tuple[str, bytes]]) -> None:
    with open(path, "wb") as fh:
        for header, body in records:
            fh.write(b">" + header.encode("ascii") + b"\n")
            for start in range(0, len(body), LINE_WIDTH):
                fh.write(body[start : start + LINE_WIDTH] + b"\n")


def n_free_runs(body: bytes) -> list[int]:
    """Lengths of the maximal N-free stretches of one record."""
    return [len(run) for run in body.upper().split(b"N") if run]


def properties(records: list[tuple[str, bytes]]) -> dict:
    """Measured shape of a generated input."""
    lengths = np.array([len(body) for _, body in records])
    joined = b"".join(body for _, body in records)
    arr = np.frombuffer(joined, dtype=np.uint8)
    upper = arr & 0xDF
    is_n = upper == _N
    edges = np.diff(np.concatenate(([0], is_n.view(np.int8), [0])))
    n_run_lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    runs = np.array([r for _, body in records for r in n_free_runs(body)])
    return {
        "records": int(lengths.size),
        "bases": int(lengths.sum()),
        "record_len": [int(lengths.min()), int(np.median(lengths)), int(lengths.max())],
        "records_shorter_than_k": int((lengths < K).sum()),
        "records_multi_window": int((lengths > WINDOW).sum()),
        "n_share": round(float(is_n.mean()), 5),
        "n_runs": int(n_run_lengths.size),
        "n_run_len": [int(n_run_lengths.min()), int(n_run_lengths.max())] if n_run_lengths.size else [0, 0],
        "lowercase_share": round(float((arr >= ord("a")).mean()), 4),
        "n_free_run_len": [int(runs.min()), int(np.median(runs)), int(runs.max())],
        "n_free_runs_lt_1k_1k_10k_ge_10k": [
            int((runs < 1_000).sum()),
            int(((runs >= 1_000) & (runs < 10_000)).sum()),
            int((runs >= 10_000).sum()),
        ],
    }
