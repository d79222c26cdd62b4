"""End-to-end batch generation: tokenize, mask, attach guiding targets.

One JSONL record is emitted per window (sequences longer than the window
length are split before masking, each window keeping its own record).
Output is byte-identical for identical (inputs, config, seed): every
random draw derives from (master_seed, window ordinal), windows are
processed in input order, and the record field order is fixed. Windows
are processed serially; ``PipelineConfig.threads`` is accepted and
checked but no longer parallelizes anything, because a thread pool over
windows ran slower than one thread (the work holds the GIL).

Each run also writes ``<output>.manifest.json`` echoing the resolved
configuration, the tool version, and content digests of inputs and
output, so any artifact can be reproduced exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .core import DnaSequence, Vocabulary
from .errors import ConfigError
from .guiding import (
    GUIDING_TASKS,
    TASK_CSP,
    TASK_FTM,
    TASK_MST,
    TASK_SOP,
    GuidingTargets,
    csp_targets,
    ftm_targets,
    mst_apply,
    sop_transform,
)
from .masking import MODE_FIXED, MaskConfig, neighbor_mask, select_targets, window_rng
from .tokenizers import N_MODE_AS_UNK, TokenizerSpec, tokenize

_SOP_STREAM = 1  # sub-stream tag so SOP draws never collide with masking draws


@dataclass
class PipelineConfig:
    """Resolved settings for one batch-generation run."""

    vocab_path: str
    fasta_path: str
    out_path: str
    n_mode: str = N_MODE_AS_UNK
    add_sentinels: bool = True
    p: float = 0.11
    mode: str = MODE_FIXED
    master_seed: int = 0
    guiding: tuple[str, ...] = ()
    sop_reverse_prob: float = 0.01
    window: int = 512
    threads: int = 1  # checked, then unused: windows run serially (see module docstring)

    def __post_init__(self) -> None:
        self.guiding = tuple(self.guiding)
        unknown = [t for t in self.guiding if t not in GUIDING_TASKS]
        if unknown:
            raise ConfigError(f"unknown guiding tasks: {unknown}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be >= 0, got {self.master_seed}")


@dataclass
class PipelineResult:
    out_path: str
    manifest_path: str
    n_records: int
    output_digest: str
    manifest: dict = field(repr=False)


def iter_windows(seqs: Iterable[DnaSequence], window: int) -> Iterator[DnaSequence]:
    """Split sequences into fixed-size windows, ids marking the span."""
    for seq in seqs:
        if len(seq.bases) <= window:
            yield seq
            continue
        for start in range(0, len(seq.bases), window):
            piece = seq.bases[start : start + window]
            yield DnaSequence(piece, source_id=f"{seq.source_id}:{start}-{start + len(piece)}")


_SEP = b";"  # the separator row's text; no field text holds it


@lru_cache(maxsize=4)
def _text_table(size: int) -> np.ndarray:
    """The line encoder's text rows, NUL-padded to a multiple of 8 bytes.

    Row ``v`` holds ``v,`` and row ``size + v`` holds ``"v":`` for every
    ``v`` below ``size``; row ``2 * size`` is the separator. Digits are
    written at a fixed width, with NULs for leading zeros, so every row is
    made by array arithmetic; the encoder deletes the NULs. Rows are
    returned as uint64 words, which numpy gathers far faster than bytes.
    """
    digits = len(str(size - 1))
    values = np.arange(size)
    table = np.zeros((2 * size + 1, -(-(digits + 3) // 8) * 8), dtype=np.uint8)
    items, keys = table[:size], table[size : 2 * size]
    for col in range(digits):
        place = 10 ** (digits - 1 - col)
        digit = values // place % 10 + ord("0")
        if place > 1:
            digit[values < place] = 0
        items[:, col] = keys[:, col + 1] = digit
    items[:, digits] = ord(",")
    keys[:, 0] = keys[:, digits + 1] = ord('"')
    keys[:, digits + 2] = ord(":")
    table[2 * size, 0] = _SEP[0]
    return table.view(np.uint64)


def build_record(
    seq: DnaSequence,
    ordinal: int,
    spec: TokenizerSpec,
    mask_cfg: MaskConfig,
    cfg: PipelineConfig,
) -> bytes:
    """Produce one batch record as its JSONL line; pure function of its arguments."""
    if not 0 <= mask_cfg.mask_id < len(spec.vocab):
        raise ConfigError(f"MASK id {mask_cfg.mask_id} is not in the vocabulary")
    ids = tokenize(seq, spec)
    sop_label = None
    if TASK_SOP in cfg.guiding:
        rng = window_rng(cfg.master_seed, ordinal, _SOP_STREAM)
        ids, sop_label = sop_transform(
            ids, cfg.sop_reverse_prob, rng, special_ids=mask_cfg.special_ids
        )
    targets = select_targets(ids, mask_cfg, ordinal)
    plan = neighbor_mask(ids, targets, mask_cfg)
    # Every value written is a position below ids.size or a token id below
    # len(vocab); the position bound is rounded up so that windows of any
    # length share one table.
    size = max(len(spec.vocab), 1 << (ids.size - 1).bit_length())
    sep = np.array([2 * size])
    rows: list[np.ndarray] = []

    def add_field(values: np.ndarray) -> None:
        rows.extend((values, sep))

    def add_labels(positions: np.ndarray, values: np.ndarray) -> None:
        pairs = np.empty(2 * positions.size, dtype=np.int64)
        pairs[0::2] = positions + size
        pairs[1::2] = values
        add_field(pairs)

    labeled = np.flatnonzero(plan.label_mask)
    add_field(np.flatnonzero(plan.in_mask))
    add_field(np.flatnonzero(plan.target_mask))
    add_labels(labeled, plan.original_ids[labeled])
    input_ids = plan.input_ids
    guiding: list[bytes] = []

    def attach(task: GuidingTargets) -> None:
        guiding.append(b'{"task":"%s","positions":[%%s],"labels":{%%s}}' % task.task.encode())
        add_field(task.position_array)
        add_labels(task.position_array, task.label_array)

    if TASK_FTM in cfg.guiding:
        attach(ftm_targets(plan))
    if TASK_MST in cfg.guiding:
        input_ids, mst = mst_apply(ids, plan)
        attach(mst)
    if sop_label is not None:
        guiding.append(b'{"task":"%s","label":%d}' % (TASK_SOP.encode(), sop_label))
    if TASK_CSP in cfg.guiding:
        attach(csp_targets(plan, spec.vocab))
    # input_ids leads the line but is final only after MST
    text = np.take(_text_table(size), np.concatenate([input_ids, sep, *rows]), axis=0)
    text = text.tobytes().translate(None, b"\0")
    fields = [part[:-1] for part in text.split(_SEP)[:-1]]
    template = (
        b'{"seq_id":%s,"input_ids":[%s],"m_in":[%s],"m":[%s],"labels":{%s},"guiding":['
        + b",".join(guiding)
        + b"]}\n"
    )
    return template % (json.dumps(seq.source_id).encode("ascii"), *fields)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@contextmanager
def _atomic_output(path: str) -> Iterator[str]:
    """Yield a fresh name beside ``path``, renamed onto it only on success.

    The name shares ``path``'s directory, so the os.replace is atomic; on
    any exception the temporary file is removed and ``path`` is untouched.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def run_pipeline(cfg: PipelineConfig, sequences: Iterable[DnaSequence] | None = None) -> PipelineResult:
    """Generate the batch file and its manifest.

    ``sequences`` defaults to streaming ``cfg.fasta_path``; passing an
    iterable directly is the library entry point. Both files are written
    under temporary names beside their targets and renamed into place
    only when the whole run succeeds; a failed run leaves neither behind.
    """
    vocab = Vocabulary.load(cfg.vocab_path)
    spec = TokenizerSpec(vocab, n_mode=cfg.n_mode, add_sentinels=cfg.add_sentinels)
    mask_cfg = MaskConfig.for_vocab(
        vocab, p=cfg.p, mode=cfg.mode, master_seed=cfg.master_seed
    )
    if TASK_FTM in cfg.guiding:
        if mask_cfg.k < 2:
            raise ConfigError("FTM requires an overlapping tokenizer (k >= 2)")
        if cfg.mode != MODE_FIXED:
            raise ConfigError("FTM requires fixed-mode masking")
    if sequences is None:
        from .fasta import read_fasta

        sequences = read_fasta(cfg.fasta_path)
    manifest_path = cfg.out_path + ".manifest.json"
    n_records = 0
    # the batch is renamed into place before its manifest
    with _atomic_output(manifest_path) as manifest_tmp, _atomic_output(cfg.out_path) as batch_tmp:
        with open(batch_tmp, "xb") as out:
            for ordinal, seq in enumerate(iter_windows(sequences, cfg.window)):
                out.write(build_record(seq, ordinal, spec, mask_cfg, cfg))
                n_records += 1

        manifest = {
            "tool": "dnaprep",
            "version": __version__,
            "config": asdict(cfg),
            "inputs": {
                "vocab": _sha256(cfg.vocab_path),
                "fasta": _sha256(cfg.fasta_path) if os.path.exists(cfg.fasta_path) else None,
            },
            "outputs": {"batch": _sha256(batch_tmp), "records": n_records},
        }
        with open(manifest_tmp, "xb") as fh:
            fh.write((json.dumps(manifest, indent=2) + "\n").encode("utf-8"))
    return PipelineResult(
        out_path=cfg.out_path,
        manifest_path=manifest_path,
        n_records=n_records,
        output_digest=manifest["outputs"]["batch"],
        manifest=manifest,
    )
