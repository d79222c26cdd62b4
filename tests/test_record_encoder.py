"""build_record's line encoder against json.dumps of the same record.

The expected line is built from a dict: the window is tokenized, masked
and given its guiding targets by the same public functions build_record
calls, and the dict is filled from their tuple and dict views, never
from the encoder. The two lines must be equal byte for byte.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnaprep import (
    CullSpec,
    DnaSequence,
    MaskConfig,
    PipelineConfig,
    TokenizerSpec,
    bpe_train,
    build_kmer_vocab,
    build_record,
    csp_targets,
    cull_vocab,
    ftm_targets,
    mst_apply,
    neighbor_mask,
    select_targets,
    sop_transform,
    tokenize,
)
from dnaprep.pipeline import _SOP_STREAM

TASKS = ("ftm", "mst", "sop", "csp")

VOCABS = {
    "k1": build_kmer_vocab(1),
    "k2": build_kmer_vocab(2),
    "k3": build_kmer_vocab(3),
    "k3n": build_kmer_vocab(3, include_n_tokens=True),
    "k6": build_kmer_vocab(6),
    "word3": build_kmer_vocab(3, kind="word"),
    "word3n": build_kmer_vocab(3, include_n_tokens=True, kind="word"),
    "bpe": bpe_train([DnaSequence("ACGTTGCAACGGATCCATGCAAGTCTTGACGATCGTAGCTAGG" * 4)], 24),
    # AAC, AAG and ACG are gone, so GTT, CTT and CGT lose their complement
    "k3_culled": cull_vocab(build_kmer_vocab(3), CullSpec(frozenset({1, 2, 6})))[0],
}


def _entry(targets):
    return {"task": targets.task, "positions": list(targets.positions), "labels": targets.labels}


def expected_line(seq, ordinal, spec, mask_cfg, cfg):
    """The record as ``json.dumps`` of a dict, with compact separators."""
    ids = tokenize(seq, spec)
    sop_label = None
    if "sop" in cfg.guiding:
        rng = np.random.default_rng((cfg.master_seed, ordinal, _SOP_STREAM))
        ids, sop_label = sop_transform(ids, cfg.sop_reverse_prob, rng, first_special_id=mask_cfg.first_special_id)
    plan = neighbor_mask(ids, select_targets(ids, mask_cfg, ordinal), mask_cfg)
    input_ids = plan.input_ids
    guiding = []
    if "ftm" in cfg.guiding:
        guiding.append(_entry(ftm_targets(plan)))
    if "mst" in cfg.guiding:
        input_ids, mst = mst_apply(ids, plan)
        guiding.append(_entry(mst))
    if sop_label is not None:
        guiding.append({"task": "sop", "label": sop_label})
    if "csp" in cfg.guiding:
        guiding.append(_entry(csp_targets(plan, spec.vocab)))
    record = {
        "seq_id": seq.source_id,
        "input_ids": input_ids.tolist(),
        "m_in": list(plan.m_in_positions),
        "m": list(plan.m_positions),
        "labels": plan.labels,
        "guiding": guiding,
    }
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("ascii")


def both_lines(vocab, bases, *, tasks=TASKS, mode="fixed", n_mode="as_unk", sentinels=True, p=0.2, seed=0, ordinal=0):
    if "ftm" in tasks and (mode != "fixed" or MaskConfig.for_vocab(vocab).k < 2):
        tasks = tuple(t for t in tasks if t != "ftm")  # FTM is defined for fixed mode and k >= 2 only
    cfg = PipelineConfig(
        vocab_path="", fasta_path="", out_path="", n_mode=n_mode, add_sentinels=sentinels,
        p=p, mode=mode, master_seed=seed, guiding=tasks, sop_reverse_prob=0.5, window=16,
    )
    spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
    mask_cfg = MaskConfig.for_vocab(vocab, p=p, mode=mode, master_seed=seed)
    seq = DnaSequence(bases, source_id=f"s{ordinal}")
    return build_record(seq, ordinal, spec, mask_cfg, cfg), expected_line(seq, ordinal, spec, mask_cfg, cfg)


@pytest.mark.parametrize("name", sorted(VOCABS))
def test_first_special_id_marks_exactly_the_special_ids(name):
    """Over every id of the vocabulary, the one threshold equals set membership."""
    vocab = VOCABS[name]
    cfg = MaskConfig.for_vocab(vocab, p=1.0)
    ids = np.arange(len(vocab), dtype=np.int32)
    special = np.isin(ids, list(vocab.specials.values()))
    assert cfg.first_special_id == vocab.n_nonspecial
    assert np.array_equal(ids >= cfg.first_special_id, special)
    assert np.array_equal(neighbor_mask(ids, [], cfg).special_mask, special)
    assert np.array_equal(select_targets(ids, cfg, 0), np.flatnonzero(~special))
    body = np.flatnonzero(~special)
    half = body.size // 2
    swapped, label = sop_transform(ids, 1.0, np.random.default_rng(0), first_special_id=cfg.first_special_id)
    assert label == 1
    assert np.array_equal(swapped[special], ids[special])
    assert np.array_equal(swapped[body], np.concatenate((body[half:], body[:half])))


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(VOCABS)))
    n_modes = ["as_unk", "drop"] + (["seg_n"] if name.endswith("n") else [])
    return dict(
        vocab=VOCABS[name],
        # up to 120 bases against a 16-base cfg.window: positions pass the window
        bases=draw(st.text(alphabet="ACGTNacgt", max_size=120)),
        tasks=tuple(draw(st.lists(st.sampled_from(TASKS), unique=True))),
        mode=draw(st.sampled_from(["fixed", "flawed"])),
        n_mode=draw(st.sampled_from(n_modes)),
        sentinels=draw(st.booleans()),
        p=draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
        ordinal=draw(st.integers(0, 10_000)),
    )


@settings(max_examples=300, deadline=None)
@given(cases())
def test_line_equals_json_dumps(case):
    vocab, bases = case.pop("vocab"), case.pop("bases")
    got, want = both_lines(vocab, bases, **case)
    assert got == want


@pytest.mark.parametrize("name", ["k3", "k6", "word3", "k3_culled"])
@pytest.mark.parametrize("bases", ["", "A", "AC", "ACGTA"])
def test_window_shorter_than_k_holds_only_sentinels(name, bases):
    vocab = VOCABS[name]
    got, want = both_lines(vocab, bases)
    assert got == want
    if len(bases) < vocab.k:
        record = json.loads(got)
        mst = next(entry for entry in record["guiding"] if entry["task"] == "mst")
        assert list(mst["labels"].values()) == [vocab.special_id("CLS"), vocab.special_id("SEP")]
        assert record["input_ids"] == [vocab.mask_id] * 2  # MST masks the sentinels
        assert record["m"] == [] and record["labels"] == {}


def test_sequence_longer_than_window_passed_directly():
    bases = "ACGTTGCAACGGATCCATGCAAGTCTTGACGATCGTAGCTAGG" * 8
    got, want = both_lines(VOCABS["k2"], bases, p=0.3)
    assert got == want
    assert len(json.loads(got)["input_ids"]) > max(16, len(VOCABS["k2"]))


@pytest.fixture(scope="module")
def vocab9():
    return build_kmer_vocab(9)


@settings(max_examples=20, deadline=None)
@given(bases=st.text(alphabet="ACGTN", min_size=8, max_size=200), seed=st.integers(0, 1000))
def test_vocabulary_above_2_17_tokens(vocab9, bases, seed):
    assert len(vocab9) > 1 << 17
    got, want = both_lines(vocab9, bases, seed=seed)
    assert got == want
