import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnaprep import (
    ConfigError,
    CullSpec,
    MaskConfig,
    Vocabulary,
    bpe_vocab_from_merges,
    build_kmer_vocab,
    csp_targets,
    cull_vocab,
    ftm_targets,
    mst_apply,
    neighbor_mask,
    select_targets,
    sop_transform,
)
from dnaprep.guiding import rc_label_lut

V3 = build_kmer_vocab(3)


def with_sentinels(vocab, body):
    return np.array([vocab.special_id("CLS")] + list(body) + [vocab.special_id("SEP")])


def make_plan(vocab, body, targets, mode="fixed", p=0.11):
    cfg = MaskConfig.for_vocab(vocab, p=p, mode=mode)
    toks = with_sentinels(vocab, body)
    return toks, neighbor_mask(toks, targets, cfg)


class TestFtm:
    def test_set_difference(self):
        toks, plan = make_plan(V3, range(8), [4])
        got = ftm_targets(plan)
        assert got.positions == (2, 3, 5, 6)
        assert got.labels == {p: int(toks[p]) for p in (2, 3, 5, 6)}

    def test_k1_rejected(self):
        v1 = build_kmer_vocab(1)
        _, plan = make_plan(v1, range(4), [2])
        with pytest.raises(ConfigError):
            ftm_targets(plan)

    def test_flawed_plan_rejected(self):
        _, plan = make_plan(V3, range(8), [4], mode="flawed")
        with pytest.raises(ConfigError):
            ftm_targets(plan)

    def test_dense_masking_empty_difference(self):
        # every body position is a target, so the neighbor set adds nothing
        toks, plan = make_plan(V3, range(6), list(range(1, 7)))
        got = ftm_targets(plan)
        assert got.positions == ()

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_partition(self, seed):
        cfg = MaskConfig.for_vocab(V3, p=0.3, master_seed=seed)
        toks = with_sentinels(V3, range(40))
        plan = neighbor_mask(toks, select_targets(toks, cfg, 0), cfg)
        ftm = set(ftm_targets(plan).positions)
        assert ftm | set(plan.m_positions) == set(plan.m_in_positions)
        assert not ftm & set(plan.m_positions)


class TestMst:
    def test_masks_all_specials(self):
        toks, plan = make_plan(V3, [5, 6], [])
        new_input, got = mst_apply(toks, plan)
        assert got.positions == (0, 3)
        assert got.labels == {0: V3.special_id("CLS"), 3: V3.special_id("SEP")}
        assert new_input[0] == V3.mask_id and new_input[3] == V3.mask_id
        assert new_input[1] == 5 and new_input[2] == 6

    def test_no_specials_empty(self):
        cfg = MaskConfig.for_vocab(V3)
        toks = np.array([1, 2, 3])
        plan = neighbor_mask(toks, [1], cfg)
        _, got = mst_apply(toks, plan)
        assert got.positions == ()

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_never_collides_with_fixed_masking(self, seed):
        cfg = MaskConfig.for_vocab(V3, p=0.4, master_seed=seed)
        toks = with_sentinels(V3, range(30))
        plan = neighbor_mask(toks, select_targets(toks, cfg, 0), cfg)
        _, got = mst_apply(toks, plan)
        assert not set(got.positions) & set(plan.m_in_positions)
        assert all(V3.is_special(label) for label in got.labels.values())


class TestSop:
    def test_prob_zero_identity(self):
        rng = np.random.default_rng(0)
        toks = with_sentinels(V3, [1, 2, 3, 4])
        out, label = sop_transform(toks, 0.0, rng, special_ids=V3.special_ids)
        assert label == 0 and np.array_equal(out, toks)

    def test_forced_half_swap(self):
        rng = np.random.default_rng(0)
        toks = with_sentinels(V3, [10, 11, 12, 13])
        out, label = sop_transform(toks, 1.0, rng, special_ids=V3.special_ids)
        assert label == 1
        assert list(out[1:-1]) == [12, 13, 10, 11]
        assert out[0] == toks[0] and out[-1] == toks[-1]

    def test_odd_span_split_at_floor(self):
        rng = np.random.default_rng(0)
        out, label = sop_transform(np.array([1, 2, 3]), 1.0, rng)
        assert label == 1 and list(out) == [2, 3, 1]

    def test_short_span_identity(self):
        rng = np.random.default_rng(0)
        toks = with_sentinels(V3, [9])
        out, label = sop_transform(toks, 1.0, rng, special_ids=V3.special_ids)
        assert label == 0 and np.array_equal(out, toks)

    def test_rate(self):
        rng = np.random.default_rng(123)
        toks = np.array([1, 2, 3, 4])
        hits = sum(sop_transform(toks, 0.01, rng)[1] for _ in range(100_000))
        assert abs(hits / 100_000 - 0.01) < 0.002

    @given(st.lists(st.integers(0, 63), min_size=2, max_size=40), st.integers(0, 100))
    @settings(max_examples=40)
    def test_multiset_preserved(self, body, seed):
        rng = np.random.default_rng(seed)
        toks = with_sentinels(V3, body)
        out, _ = sop_transform(toks, 1.0, rng, special_ids=V3.special_ids)
        assert sorted(out.tolist()) == sorted(toks.tolist())
        assert out.size == toks.size


class TestCsp:
    def test_unmasked_complement_k1(self):
        v1 = build_kmer_vocab(1)
        cfg = MaskConfig.for_vocab(v1)
        toks = with_sentinels(v1, [v1.id_of("A"), v1.id_of("C")])
        plan = neighbor_mask(toks, [1], cfg)
        got = csp_targets(plan, v1)
        assert got.positions == (2,)
        assert got.labels == {2: v1.id_of("G")}

    def test_fully_masked_empty(self):
        toks, plan = make_plan(V3, range(5), list(range(1, 6)))
        got = csp_targets(plan, V3)
        assert got.positions == ()

    def test_never_intersects_input_mask(self):
        toks, plan = make_plan(V3, range(20), [4, 9])
        got = csp_targets(plan, V3)
        assert not set(got.positions) & set(plan.m_in_positions)
        assert not set(got.positions) & plan.special_positions

    def test_double_rc_recovers_original(self):
        toks, plan = make_plan(V3, range(20), [4])
        got = csp_targets(plan, V3)
        for pos, label in got.labels.items():
            assert V3.rc_label(label) == int(toks[pos])

    def test_labels_never_special(self):
        toks, plan = make_plan(V3, range(12), [3])
        got = csp_targets(plan, V3)
        assert all(not V3.is_special(label) for label in got.labels.values())


class TestRcLabelLut:
    """The CSP lookup table against Vocabulary.rc_label, id by id."""

    @pytest.mark.parametrize(
        "vocab",
        [
            build_kmer_vocab(4),
            build_kmer_vocab(3, include_n_tokens=True, kind="word"),
            cull_vocab(build_kmer_vocab(3), CullSpec(frozenset({1, 2, 6})))[0],
            bpe_vocab_from_merges([("A", "C"), ("G", "T"), ("AC", "GT"), ("A", "A")]),
        ],
        ids=["kmer", "word", "culled", "bpe"],
    )
    def test_table_equals_rc_label(self, vocab):
        lut = rc_label_lut(vocab)
        assert [int(lut[i]) for i in range(vocab.n_nonspecial)] == [
            vocab.rc_label(i) for i in range(vocab.n_nonspecial)
        ]

    def test_culled_complements_fall_back_to_cull(self):
        vocab = cull_vocab(build_kmer_vocab(3), CullSpec(frozenset({1, 2, 6})))[0]
        lut = rc_label_lut(vocab)
        for kept in ("GTT", "CTT", "CGT"):  # complements AAC, AAG, ACG were culled
            assert lut[vocab.id_of(kept)] == vocab.cull_id

    def test_missing_complement_without_cull_raises(self):
        tokens = ("AA", "AC", "TT") + tuple(f"[{n}]" for n in ("CLS", "SEP", "MASK", "PAD", "UNK"))
        specials = {n: 3 + i for i, n in enumerate(("CLS", "SEP", "MASK", "PAD", "UNK"))}
        vocab = Vocabulary(kind="kmer", tokens=tokens, specials=specials, k=2)
        cfg = MaskConfig.for_vocab(vocab)
        clean = neighbor_mask(with_sentinels(vocab, [0, 2, 2, 0]), [], cfg)
        assert csp_targets(clean, vocab).labels == {1: 2, 2: 0, 3: 0, 4: 2}
        plan = neighbor_mask(with_sentinels(vocab, [0, 1, 2]), [], cfg)
        with pytest.raises(ValueError, match="missing from vocabulary"):
            csp_targets(plan, vocab)


@pytest.mark.parametrize("mode", ["fixed", "flawed"])
def test_int32_ids_stay_int32(mode):
    """Tokenizer ids are int32; masking and the guiding tasks keep that dtype."""
    vocab = build_kmer_vocab(6)
    cfg = MaskConfig.for_vocab(vocab, p=0.3, mode=mode, master_seed=4)
    toks = with_sentinels(vocab, range(0, 4000, 37)).astype(np.int32)
    swapped, label = sop_transform(toks, 1.0, np.random.default_rng(0), special_ids=vocab.special_ids)
    assert label == 1 and swapped.dtype == np.int32
    plan = neighbor_mask(swapped, select_targets(swapped, cfg, 0), cfg)
    assert plan.in_mask.any()
    assert plan.input_ids.dtype == np.int32 and plan.original_ids.dtype == np.int32
    assert np.array_equal(plan.original_ids, swapped)
    masked, mst = mst_apply(swapped, plan)
    assert masked.dtype == np.int32 and mst.label_array.dtype == np.int32
    assert mst.labels == {0: vocab.special_id("CLS"), swapped.size - 1: vocab.special_id("SEP")}
