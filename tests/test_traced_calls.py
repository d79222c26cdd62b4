"""The per-window call shape that the benchmark's tracer measures.

``bench/spans.py`` times the pipeline by swapping the names that
``dnaprep.pipeline`` looks up at call time, and ``bench/layers.py``
divides each layer's time by the number of its spans. Both assume that a
``guide`` run makes exactly one call per window to each traced function;
this test pins that shape for all four tasks.
"""

import sys
from pathlib import Path

import pytest

from dnaprep import PipelineConfig, build_kmer_vocab, run_pipeline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402
from spans import Tracer, traced  # noqa: E402

PER_WINDOW = (
    "pipeline.build_record",
    "tokenizers.tokenize",
    "masking.select_targets",
    "masking.neighbor_mask",
    "guiding.sop_transform",
    "guiding.ftm_targets",
    "guiding.mst_apply",
    "guiding.csp_targets",
)


@pytest.mark.parametrize("n_mode", ["as_unk", "drop"])
def test_four_task_guide_makes_one_traced_call_per_window(tmp_path, n_mode):
    fasta = tmp_path / "in.fa"
    gen.write_fasta(fasta, gen.mixed_records(0)[:12])
    vocab = tmp_path / "k6.json"
    build_kmer_vocab(6).save(vocab)
    out = tmp_path / "out.jsonl"
    cfg = PipelineConfig(
        vocab_path=str(vocab), fasta_path=str(fasta), out_path=str(out), n_mode=n_mode,
        guiding=("ftm", "mst", "sop", "csp"), window=512,
    )
    tracer = Tracer()
    with traced(tracer):
        run_pipeline(cfg)
    with open(out) as fh:
        windows = sum(1 for _ in fh)
    assert windows > 12  # some records span several windows
    assert {name: len(tracer.durations(name)) for name in PER_WINDOW} == dict.fromkeys(PER_WINDOW, windows)
    for name in ("tokenizers.tokenize", "masking.neighbor_mask", "guiding.sop_transform", "guiding.csp_targets"):
        assert len(tracer.kept[name]) == windows


def _traced_counts(tmp_path, vocab, n_mode, guiding):
    """Each traced name's call count in one run over 12 mixed records, and the run's window count."""
    fasta = tmp_path / "in.fa"
    gen.write_fasta(fasta, gen.mixed_records(0)[:12])
    vocab_path = tmp_path / "vocab.json"
    vocab.save(vocab_path)
    out = tmp_path / "out.jsonl"
    cfg = PipelineConfig(
        vocab_path=str(vocab_path), fasta_path=str(fasta), out_path=str(out), n_mode=n_mode,
        guiding=guiding, window=512,
    )
    tracer = Tracer()
    with traced(tracer):
        run_pipeline(cfg)
    with open(out) as fh:
        windows = sum(1 for _ in fh)
    assert windows > 12  # some records span several windows
    return {name: len(tracer.durations(name)) for name in PER_WINDOW}, windows


def test_mask_makes_one_call_per_window_and_no_guiding_call(tmp_path):
    """Without guiding tasks, the masking stages keep one call per window and no task runs."""
    counts, windows = _traced_counts(tmp_path, build_kmer_vocab(6), "as_unk", ())
    masking = PER_WINDOW[:4]
    assert counts == {name: windows if name in masking else 0 for name in PER_WINDOW}


def test_seg_n_guide_makes_one_traced_call_per_window(tmp_path):
    """N runs covered by N-run tokens take the same per-window calls as the other N modes."""
    vocab = build_kmer_vocab(6, include_n_tokens=True)
    counts, windows = _traced_counts(tmp_path, vocab, "seg_n", ("ftm", "mst", "sop", "csp"))
    assert counts == dict.fromkeys(PER_WINDOW, windows)
