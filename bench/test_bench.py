"""Self-tests of the benchmark: the oracle rejects wrong batches, the tracer adds up.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dnaprep  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from run import GUIDE_TASKS, WINDOW, unmask_one  # noqa: E402
from spans import Tracer, traced  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    fasta = work / "in.fa"
    gen.write_fasta(fasta, gen.mixed_records(0)[:40])
    k6 = work / "k6.json"
    dnaprep.build_kmer_vocab(6).save(k6)
    return work, fasta, k6


def batch(work, fasta, vocab, name, **cfg):
    out = work / name
    dnaprep.run_pipeline(
        dnaprep.PipelineConfig(vocab_path=str(vocab), fasta_path=str(fasta), out_path=str(out), window=WINDOW, **cfg)
    )
    with open(out) as fh:
        return [json.loads(line) for line in fh]


def kmer_problems(records, fasta, vocab_path, tasks=()):
    vocab = json.loads(Path(vocab_path).read_text())
    ref = oracle.KmerOracle(vocab["k"], vocab["specials"])
    wins = oracle.windows(oracle.parse_fasta(fasta), WINDOW)
    assert len(records) == len(wins)
    return [ref.check_record(rec, seq_id, bases, tasks) for rec, (seq_id, bases) in zip(records, wins)]


@pytest.mark.parametrize("tasks", [(), GUIDE_TASKS])
def test_correct_batches_pass(inputs, tasks):
    work, fasta, k6 = inputs
    records = batch(work, fasta, k6, "ok.jsonl", master_seed=3, guiding=tasks)
    assert not any(kmer_problems(records, fasta, k6, tasks))


def test_flawed_batch_is_flagged(inputs):
    work, fasta, k6 = inputs
    records = batch(work, fasta, k6, "flawed.jsonl", master_seed=3, mode="flawed")
    flagged = [bool(p) for p in kmer_problems(records, fasta, k6)]
    with_targets = [bool(rec["m"]) for rec in records]
    assert any(with_targets)
    assert all(f for f, t in zip(flagged, with_targets) if t)


def test_one_unmasked_neighbor_is_flagged(inputs):
    work, fasta, k6 = inputs
    records = batch(work, fasta, k6, "ok.jsonl", master_seed=3)
    mask_id = dnaprep.build_kmer_vocab(6).mask_id
    i = next(j for j, rec in enumerate(records) if rec["m"])
    records[i] = unmask_one(records[i], mask_id)
    problems = kmer_problems(records, fasta, k6)
    assert [j for j, p in enumerate(problems) if p] == [i]


def test_reference_kmer_ids_agree(inputs):
    _, fasta, _ = inputs
    ref = oracle.KmerOracle(6, dnaprep.build_kmer_vocab(6).specials)
    for _, bases in oracle.parse_fasta(fasta)[:10]:
        assert ref.ids(bases) == oracle.kmer_ids_array(bases, 6, ref.sp["UNK"]).tolist()


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_time("a") == 6.0
    assert tracer.self_time("b") == 3.0


def test_traced_restores_and_keeps_outputs(inputs):
    work, fasta, k6 = inputs
    original = dnaprep.pipeline.build_record
    tracer = Tracer()
    with traced(tracer):
        records = batch(work, fasta, k6, "traced.jsonl", master_seed=3)
    assert dnaprep.pipeline.build_record is original
    assert len(tracer.durations("pipeline.build_record")) == len(records)
    assert len(tracer.kept["masking.neighbor_mask"]) == len(records)
    parents = {tracer.spans[p][0] for name, _, _, p in tracer.spans if name == "fasta.read_fasta"}
    assert parents == {"pipeline.iter_windows"}


def test_peak_rss_is_the_childs_own():
    ballast = np.ones(100 * 2**20 // 8)  # the parent holds 100 MB
    code = "import run; print(run.peak_rss_mb())"
    here = Path(__file__).resolve().parent
    out = subprocess.run([sys.executable, "-c", code], cwd=here, capture_output=True, text=True, check=True)
    assert 0 < float(out.stdout) < ballast.nbytes / 1e6
