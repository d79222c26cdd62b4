"""End-to-end batch generation: tokenize, mask, attach guiding targets.

One JSONL record is emitted per window (sequences longer than the window
length are split before masking, each window keeping its own record).
Output is byte-identical for identical (inputs, config, seed): every
random draw derives from (master_seed, window ordinal), windows are
processed in input order, and the record field order is fixed. Windows
are processed serially, because a thread pool over windows ran slower
than one thread (the work holds the GIL). ``PipelineConfig.threads`` is
still accepted and checked, though it changes nothing, because the
benchmark harness builds its configs with it. The field goes when the
manifest gains a format version and the harness stops setting it. The
CLI has no flag for it.

Each run also writes ``<output>.manifest.json`` echoing the resolved
configuration, the tool version, and content digests of inputs and
output, so any artifact can be reproduced exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii  # json.dumps of a str, without its per-call set-up
from typing import Iterable, Iterator

import numpy as np

from . import GUIDING_TASKS, MODE_FIXED, TASK_CSP, TASK_FTM, TASK_MST, TASK_SOP, __version__
from .atomic import atomic_output, refuse_input_overwrite
from .core import DnaSequence, Vocabulary, as_int, subsequence
from .errors import ConfigError
from .guiding import GuidingTargets, csp_targets, ftm_targets, mst_apply, sop_transform
from .masking import MaskConfig, check_numbers, neighbor_mask, select_targets, window_rng
from .tokenizers import TokenizerSpec, check_settings, tokenize

_SOP_STREAM = 1  # sub-stream tag so SOP draws never collide with masking draws

_NUMBER_FIELDS = {"sop_reverse_prob": (int, float), "window": int, "threads": int}  # the rest are MaskConfig's


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings for one batch-generation run, checked once on construction and then frozen.

    The tokenizer and masking settings take their defaults and their checks
    from :class:`TokenizerSpec` and :class:`MaskConfig`, which own them.
    """

    vocab_path: str
    fasta_path: str
    out_path: str
    n_mode: str = TokenizerSpec.n_mode
    add_sentinels: bool = True
    p: float = MaskConfig.p
    mode: str = MaskConfig.mode
    master_seed: int = MaskConfig.master_seed
    guiding: tuple[str, ...] = ()
    sop_reverse_prob: float = 0.01
    window: int = 512
    threads: int = 1  # checked, then unused: kept only for the benchmark harness until a format version lands

    def __post_init__(self) -> None:
        for name in ("vocab_path", "fasta_path", "out_path"):
            path = getattr(self, name)
            if not isinstance(path, (str, os.PathLike)):
                raise ConfigError(f"{name} must be a path, got {path!r}")
            object.__setattr__(self, name, os.fspath(path))
        object.__setattr__(self, "guiding", tuple(self.guiding))
        unknown = [t for t in self.guiding if t not in GUIDING_TASKS]
        if unknown:
            raise ConfigError(f"unknown guiding tasks: {unknown}")
        if len(set(self.guiding)) < len(self.guiding):
            raise ConfigError(f"guiding tasks must not repeat, got {list(self.guiding)}")
        check_settings(self.n_mode, self.add_sentinels)
        # p, mode and master_seed get the run's masking checks here, before any input is read,
        # and the seed is kept as MaskConfig stores it: a plain int, which the manifest's JSON can hold
        masking = MaskConfig(p=self.p, mode=self.mode, master_seed=self.master_seed)
        object.__setattr__(self, "master_seed", masking.master_seed)
        check_numbers(self, _NUMBER_FIELDS)
        if TASK_FTM in self.guiding and self.mode != MODE_FIXED:
            raise ConfigError("FTM requires fixed-mode masking")
        if not 0.0 <= self.sop_reverse_prob <= 1.0:  # NaN fails too
            raise ConfigError(f"sop_reverse_prob must be in [0, 1], got {self.sop_reverse_prob}")
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
    """Split sequences into fixed-size windows, ids marking the span; a window below 1 raises at once."""
    window = as_int(window, "window")
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    return _windows(seqs, window)


def _windows(seqs: Iterable[DnaSequence], window: int) -> Iterator[DnaSequence]:
    for seq in seqs:
        n = len(seq.bases)
        if n <= window:
            yield seq
            continue
        for start in range(0, n, window):
            stop = min(start + window, n)
            yield subsequence(seq, start, stop, f"{seq.source_id}:{start}-{stop}")


_FIELD = b"\0"  # where a field's values go in a line template; no literal text holds it
_WRITE_BUFFER = 1 << 18  # bytes the batch file buffers between writes


def _line_template(tasks: tuple[str, ...], sop_label: int) -> bytes:
    """A line's text after its seq_id, with ``_FIELD`` where each list of values goes."""
    entries = []
    for task in GUIDING_TASKS:  # the fixed entry order, whatever the order of ``tasks``
        if task == TASK_SOP and task in tasks:
            entries.append(b'{"task":"%s","label":%d}' % (task.encode(), sop_label))
        elif task in tasks:
            entries.append(b'{"task":"%s","positions":[\0],"labels":{\0}}' % task.encode())
    return b',"input_ids":[\0],"m_in":[\0],"m":[\0],"labels":{\0},"guiding":[' + b",".join(entries) + b"]}\n"


@lru_cache(maxsize=4)
def _line_table(size: int, tasks: tuple[str, ...]) -> tuple[np.ndarray, tuple[list[np.ndarray], ...]]:
    """The line encoder's text rows, NUL-padded to a multiple of 8 bytes, and its literal rows.

    For every ``v`` below ``size``, row ``v`` holds ``v,``, row
    ``size + v`` holds ``"v":`` and row ``2 * size + v`` holds ``v``, a
    list's last value. Digits are written at a fixed width, with NULs for
    leading zeros, so every row is made by array arithmetic; the encoder
    deletes the NULs. After them come the literal texts between the
    fields of the line template for ``tasks``, cut into rows; the second
    value returned holds, per SOP label, the row ids of each literal.
    Rows are uint64 words, which numpy gathers far faster than bytes.
    """
    digits = len(str(size - 1))
    width = -(-(digits + 3) // 8) * 8
    values = np.arange(size)
    numbers = np.zeros((3, size, width), dtype=np.uint8)
    items, keys, lasts = numbers
    for col in range(digits):
        place = 10 ** (digits - 1 - col)
        digit = values // place % 10 + ord("0")
        if place > 1:
            digit[values < place] = 0
        items[:, col] = keys[:, col + 1] = lasts[:, col] = digit
    items[:, digits] = ord(",")
    keys[:, 0] = keys[:, digits + 1] = ord('"')
    keys[:, digits + 2] = ord(":")
    rows, n_rows, literals = [numbers.reshape(-1, width)], 3 * size, []
    for sop_label in (0, 1):
        gaps = []
        for text in _line_template(tasks, sop_label).split(_FIELD):
            text = np.frombuffer(text.ljust(-(-len(text) // width) * width, b"\0"), dtype=np.uint8)
            rows.append(text.reshape(-1, width))
            gaps.append(np.arange(n_rows, n_rows + len(rows[-1])))
            n_rows += len(rows[-1])
        literals.append(gaps)
    return np.concatenate(rows).view(np.uint64), tuple(literals)


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
    sop_label = 0
    if TASK_SOP in cfg.guiding:
        rng = window_rng(mask_cfg.master_seed, ordinal, _SOP_STREAM)
        ids, sop_label = sop_transform(ids, cfg.sop_reverse_prob, rng, first_special_id=mask_cfg.first_special_id)
    targets = select_targets(ids, mask_cfg, ordinal)
    plan = neighbor_mask(ids, targets, mask_cfg)
    # Every value written is a position below ids.size or a token id below
    # len(vocab); the position bound is rounded up so that windows of any
    # length share one table.
    size = max(len(spec.vocab), 1 << (ids.size - 1).bit_length())
    table, literals = _line_table(size, cfg.guiding)
    m_in = plan.in_mask.nonzero()[0]
    m = plan.target_mask.nonzero()[0]
    labeled = plan.label_mask.nonzero()[0]
    input_ids = plan.input_ids
    tasks: list[GuidingTargets] = []
    if TASK_FTM in cfg.guiding:
        tasks.append(ftm_targets(plan))
    if TASK_MST in cfg.guiding:
        input_ids, mst = mst_apply(ids, plan)
        tasks.append(mst)
    if TASK_CSP in cfg.guiding:
        tasks.append(csp_targets(plan, spec.vocab))
    # every labels object as (key row, value) pairs in one array
    keys, values = [labeled], [plan.original_ids[labeled]]
    for task in tasks:
        keys.append(task.position_array)
        values.append(task.label_array)
    counts = [len(positions) for positions in keys]
    pairs = np.empty((sum(counts), 2), dtype=np.int64)
    np.concatenate(keys, out=pairs[:, 0])
    np.concatenate(values, out=pairs[:, 1])
    pairs[:, 0] += size
    pairs = pairs.ravel()
    start = 2 * counts[0]
    fields = [input_ids, m_in, m, pairs[:start]]
    for task, count in zip(tasks, counts[1:]):
        fields += task.position_array, pairs[start : start + 2 * count]
        start += 2 * count
    parts = [None] * (2 * len(fields) + 1)  # literal, field, literal, ..., literal
    parts[::2] = literals[sop_label]
    parts[1::2] = fields
    index = np.concatenate(parts)
    ends = list(accumulate(map(len, parts)))
    for end, field in zip(ends[1::2], fields):
        if len(field):
            index[end - 1] += 2 * size  # a list's last value takes its comma-free row
    text = table.take(index, axis=0).tobytes().translate(None, b"\0")
    return b'{"seq_id":' + encode_basestring_ascii(seq.source_id).encode("ascii") + text


def run_pipeline(cfg: PipelineConfig, sequences: Iterable[DnaSequence] | None = None) -> PipelineResult:
    """Generate the batch file and its manifest.

    ``sequences`` defaults to streaming ``cfg.fasta_path``; passing an
    iterable directly is the library entry point, and the manifest's
    FASTA digest is then null, since no byte of that file reaches the
    batch. Otherwise the digest is taken from the bytes the reader
    parsed, so a pipe or a file replaced mid-run is named correctly.
    Both files are written under temporary names beside their targets
    and renamed into place only when the whole run succeeds; a failed
    run leaves neither behind, and neither may be one of the inputs.
    """
    fasta_read = sequences is None
    manifest_path = cfg.out_path + ".manifest.json"
    inputs = {"vocab_path": cfg.vocab_path, "fasta_path": cfg.fasta_path if fasta_read else None}
    refuse_input_overwrite((cfg.out_path, manifest_path), inputs)
    with open(cfg.vocab_path, "rb") as fh:
        vocab_bytes = fh.read()  # parsed and hashed, so the manifest names the vocabulary used
    vocab = Vocabulary.from_json_bytes(vocab_bytes)
    spec = TokenizerSpec(vocab, n_mode=cfg.n_mode, add_sentinels=cfg.add_sentinels)
    mask_cfg = MaskConfig.for_vocab(vocab, p=cfg.p, mode=cfg.mode, master_seed=cfg.master_seed)
    if TASK_FTM in cfg.guiding and mask_cfg.k < 2:
        raise ConfigError("FTM requires an overlapping tokenizer (k >= 2)")
    fasta_digest = None
    if fasta_read:
        from .fasta import read_fasta  # looked up per call, so a wrapper put on the module is used

        fasta_digest = hashlib.sha256()
        sequences = read_fasta(cfg.fasta_path, digest=fasta_digest)
    n_records = 0
    # the batch is hashed as it is written, and renamed into place before its manifest
    batch_digest = hashlib.sha256()
    with atomic_output(manifest_path) as manifest_tmp, atomic_output(cfg.out_path) as batch_tmp:
        with open(batch_tmp, "xb", buffering=_WRITE_BUFFER) as out:
            for ordinal, seq in enumerate(iter_windows(sequences, cfg.window)):
                line = build_record(seq, ordinal, spec, mask_cfg, cfg)
                out.write(line)
                batch_digest.update(line)
                n_records += 1

        manifest = {
            "tool": "dnaprep",
            "version": __version__,
            "config": asdict(cfg),
            "inputs": {
                "vocab": hashlib.sha256(vocab_bytes).hexdigest(),
                "fasta": fasta_digest.hexdigest() if fasta_digest else None,  # the windows are exhausted
            },
            "outputs": {"batch": batch_digest.hexdigest(), "records": n_records},
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
