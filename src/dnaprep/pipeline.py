"""End-to-end batch generation: tokenize, mask, attach guiding targets.

One JSONL record is emitted per window (sequences longer than the window
length are split before masking, each window keeping its own record).
Output is byte-identical for identical (inputs, config, seed) regardless
of worker-thread count: every random draw derives from (master_seed,
window ordinal), windows are processed in input order, and the record
field order is fixed.

Each run also writes ``<output>.manifest.json`` echoing the resolved
configuration, the tool version, and content digests of inputs and
output, so any artifact can be reproduced exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Iterator

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
from .masking import MODE_FIXED, MaskConfig, neighbor_mask, select_targets
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
    threads: int = 1

    def __post_init__(self) -> None:
        self.guiding = tuple(self.guiding)
        unknown = [t for t in self.guiding if t not in GUIDING_TASKS]
        if unknown:
            raise ConfigError(f"unknown guiding tasks: {unknown}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


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


_TABLE_MAX = 1 << 17  # both tables at this size hold 17 MB


@lru_cache(maxsize=4)
def _decimal(size: int) -> tuple[Callable[[int], str], Callable[[int], str]]:
    """Text of a value below ``size``: its decimal digits, and the same as a ``,"v":`` key.

    The text comes from two lists of every value's text, built once per
    size; a list lookup is about three times faster than ``str``. Past
    ``_TABLE_MAX`` entries the lists would outgrow 17 MB (a 9-mer
    vocabulary needs 2^19), so the text is formatted per value.
    """
    if size > _TABLE_MAX:
        return str, ',"{}":'.format
    return [str(i) for i in range(size)].__getitem__, [f',"{i}":' for i in range(size)].__getitem__


def _ints(values: np.ndarray, num) -> str:
    return ",".join(map(num, values.tolist()))


def _labels(positions: np.ndarray, labels: np.ndarray, num, key) -> str:
    return "".join(map(add, map(key, positions.tolist()), map(num, labels.tolist())))[1:]


def _targets(targets: GuidingTargets, num, key) -> str:
    pos, labels = targets.position_array, targets.label_array
    return (
        f'{{"task":"{targets.task}","positions":[{_ints(pos, num)}],'
        f'"labels":{{{_labels(pos, labels, num, key)}}}}}'
    )


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
        rng = np.random.default_rng((cfg.master_seed, ordinal, _SOP_STREAM))
        ids, sop_label = sop_transform(
            ids, cfg.sop_reverse_prob, rng, special_ids=mask_cfg.special_ids
        )
    targets = select_targets(ids, mask_cfg, ordinal)
    plan = neighbor_mask(ids, targets, mask_cfg)
    # Every value written is a position below ids.size or a token id below
    # len(vocab); the size is rounded up so windows of any length share text.
    num, key = _decimal(1 << (max(ids.size, len(spec.vocab)) - 1).bit_length())
    input_ids = plan.input_ids
    guiding: list[str] = []
    if TASK_FTM in cfg.guiding:
        guiding.append(_targets(ftm_targets(plan), num, key))
    if TASK_MST in cfg.guiding:
        input_ids, mst = mst_apply(ids, plan)
        guiding.append(_targets(mst, num, key))
    if sop_label is not None:
        guiding.append(f'{{"task":"{TASK_SOP}","label":{sop_label}}}')
    if TASK_CSP in cfg.guiding:
        guiding.append(_targets(csp_targets(plan, spec.vocab), num, key))
    m = np.flatnonzero(plan.target_mask)
    m_in = np.flatnonzero(plan.in_mask)
    labeled = np.flatnonzero(plan.label_mask)
    line = (
        f'{{"seq_id":{json.dumps(seq.source_id)},"input_ids":[{_ints(input_ids, num)}],'
        f'"m_in":[{_ints(m_in, num)}],"m":[{_ints(m, num)}],'
        f'"labels":{{{_labels(labeled, plan.original_ids[labeled], num, key)}}},'
        f'"guiding":[{",".join(guiding)}]}}\n'
    )
    return line.encode("ascii")


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
    windows = enumerate(iter_windows(sequences, cfg.window))

    def work(item: tuple[int, DnaSequence]) -> bytes:
        ordinal, seq = item
        return build_record(seq, ordinal, spec, mask_cfg, cfg)

    manifest_path = cfg.out_path + ".manifest.json"
    n_records = 0
    # the batch is renamed into place before its manifest
    with _atomic_output(manifest_path) as manifest_tmp, _atomic_output(cfg.out_path) as batch_tmp:
        with open(batch_tmp, "xb") as out:
            if cfg.threads > 1:
                # Bounded look-ahead keeps memory independent of corpus size
                # while results are still written in input order.
                with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                    pending: deque = deque()
                    for item in windows:
                        pending.append(pool.submit(work, item))
                        if len(pending) >= cfg.threads * 4:
                            out.write(pending.popleft().result())
                            n_records += 1
                    while pending:
                        out.write(pending.popleft().result())
                        n_records += 1
            else:
                for item in windows:
                    out.write(work(item))
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
