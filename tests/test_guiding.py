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
from dnaprep.core import rc_string

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
        out, label = sop_transform(toks, 0.0, rng, first_special_id=V3.n_nonspecial)
        assert label == 0 and np.array_equal(out, toks)

    def test_forced_half_swap(self):
        rng = np.random.default_rng(0)
        toks = with_sentinels(V3, [10, 11, 12, 13])
        out, label = sop_transform(toks, 1.0, rng, first_special_id=V3.n_nonspecial)
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
        out, label = sop_transform(toks, 1.0, rng, first_special_id=V3.n_nonspecial)
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
        out, _ = sop_transform(toks, 1.0, rng, first_special_id=V3.n_nonspecial)
        assert sorted(out.tolist()) == sorted(toks.tolist())
        assert out.size == toks.size


def sop_reference(tokens, reverse_prob, rng, special_ids):
    """sop_transform as first written: the body is found first, and a body of
    fewer than two tokens returns before the draw."""
    tokens = np.asarray(tokens)
    out = tokens.copy()
    body = np.flatnonzero(~np.isin(tokens, list(special_ids)))
    if body.size < 2 or rng.random() >= reverse_prob:
        return out, 0
    half = body.size // 2
    out[body] = tokens[np.concatenate((body[half:], body[:half]))]
    return out, 1


class TestSopOracle:
    @given(
        st.integers(0, 3) | st.integers(4, 600),
        st.sampled_from([0.0, 0.01, 0.5, 1.0]),
        st.booleans(),
        st.integers(0, 2**32),
    )
    @settings(max_examples=300)
    def test_matches_reference(self, body_size, prob, sentinels, seed):
        body = np.random.default_rng(seed).integers(0, V3.n_nonspecial, body_size)
        toks = (with_sentinels(V3, body) if sentinels else body).astype(np.int32)
        got = sop_transform(toks, prob, np.random.default_rng(seed), first_special_id=V3.n_nonspecial)
        want = sop_reference(toks, prob, np.random.default_rng(seed), V3.specials.values())
        assert got[1] == want[1]
        assert np.array_equal(got[0], want[0]) and got[0].dtype == toks.dtype
        assert got[0] is not toks

    @pytest.mark.parametrize("body_size", [0, 1, 2, 50])
    @pytest.mark.parametrize("prob", [0.0, 1.0])
    def test_draws_exactly_one_number(self, body_size, prob):
        toks = with_sentinels(V3, range(body_size))
        rng = np.random.default_rng(7)
        sop_transform(toks, prob, rng, first_special_id=V3.n_nonspecial)
        after_one = np.random.default_rng(7)
        after_one.random()
        assert rng.bit_generator.state == after_one.bit_generator.state

    @pytest.mark.parametrize("prob", [-0.1, 1.5, float("nan")])
    def test_bad_probability_raises(self, prob):
        with pytest.raises(ConfigError):
            sop_transform(with_sentinels(V3, [1, 2]), prob, np.random.default_rng(0))


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


def loop_rc_labels(vocab):
    """The RC table as a per-token loop: the id of the RC token, else [CULL], else -1; a BPE label is its id."""
    labels = [-1] * len(vocab)
    for token_id in range(vocab.n_nonspecial):
        rc = rc_string(vocab.tokens[token_id])
        if vocab.kind == "bpe":
            labels[token_id] = token_id
        elif rc in vocab:
            labels[token_id] = vocab.id_of(rc)
        elif vocab.cull_id is not None:
            labels[token_id] = vocab.cull_id
    return labels


class TestRcLabelLut:
    """The CSP lookup table against Vocabulary.rc_label, id by id."""

    @pytest.mark.parametrize(
        "vocab",
        [
            build_kmer_vocab(4),
            build_kmer_vocab(3, include_n_tokens=True, kind="word"),
            cull_vocab(build_kmer_vocab(3), CullSpec(frozenset({1, 2, 6})))[0],
            bpe_vocab_from_merges([("A", "C"), ("G", "T"), ("AC", "GT"), ("A", "A")]),
            *(build_kmer_vocab(k) for k in (1, 2, 3, 5, 6, 7, 8)),
            build_kmer_vocab(5, include_n_tokens=True),
            build_kmer_vocab(2, kind="word"),
            cull_vocab(build_kmer_vocab(5, include_n_tokens=True), CullSpec(frozenset(range(3, 1024, 13))))[0],
            Vocabulary(
                kind="kmer",
                tokens=("AA", "AC", "TT", "GG", "NN", "N", "[CLS]", "[SEP]", "[MASK]", "[PAD]", "[UNK]"),
                specials={"CLS": 6, "SEP": 7, "MASK": 8, "PAD": 9, "UNK": 10},
                k=2,
            ),
        ],
        ids=[
            "kmer", "word", "culled", "bpe", "kmer1", "kmer2", "kmer3", "kmer5", "kmer6", "kmer7", "kmer8",
            "kmer5_n_tokens", "word2", "culled5_n_tokens", "missing_without_cull",
        ],
    )
    def test_table_equals_rc_label(self, vocab):
        """The arithmetic table against the string loop it replaced, kept here as the oracle."""
        assert vocab.rc_labels.tolist() == loop_rc_labels(vocab)

    @pytest.mark.parametrize(
        "vocab",
        [
            build_kmer_vocab(6),
            build_kmer_vocab(4, include_n_tokens=True),
            build_kmer_vocab(3, include_n_tokens=True, kind="word"),
            cull_vocab(build_kmer_vocab(3), CullSpec(frozenset({1, 2, 6})))[0],
            cull_vocab(build_kmer_vocab(5), CullSpec(frozenset(range(3, 1024, 13))))[0],
            Vocabulary(
                kind="kmer",
                tokens=("AA", "AC", "TT", "[CLS]", "[SEP]", "[MASK]", "[PAD]", "[UNK]"),
                specials={"CLS": 3, "SEP": 4, "MASK": 5, "PAD": 6, "UNK": 7},
                k=2,
            ),
            Vocabulary(
                kind="word",
                tokens=("AC", "GT", "A\nT", "G\nG", "[CULL]", "[CLS]", "[SEP]", "[MASK]", "[PAD]", "[UNK]"),
                specials={"CLS": 5, "SEP": 6, "MASK": 7, "PAD": 8, "UNK": 9},
                k=2,
            ),
            bpe_vocab_from_merges([("A", "C"), ("G", "T"), ("AC", "GT"), ("A", "A")]),
        ],
        ids=["kmer6", "kmer4_n_tokens", "word", "culled3", "culled5", "no_cull_missing", "newline_tokens", "bpe"],
    )
    def test_every_entry_equals_rc_label_or_minus_one(self, vocab):
        """Specials and complements missing without [CULL] hold -1, where rc_label raises."""

        def reference(token_id):
            if vocab.is_special(token_id):
                return -1
            if vocab.kind == "bpe":
                return token_id
            rc = rc_string(vocab.tokens[token_id])
            if rc in vocab:
                return vocab.id_of(rc)
            return -1 if vocab.cull_id is None else vocab.cull_id

        lut = vocab.rc_labels
        assert lut.tolist() == [reference(i) for i in range(len(vocab))]
        assert not lut.flags.writeable
        assert vocab.rc_labels is lut
        for token_id, label in enumerate(lut.tolist()):
            if label < 0:
                with pytest.raises(ValueError):
                    vocab.rc_label(token_id)
            else:
                assert vocab.rc_label(token_id) == label

    def test_culled_complements_fall_back_to_cull(self):
        vocab = cull_vocab(build_kmer_vocab(3), CullSpec(frozenset({1, 2, 6})))[0]
        lut = vocab.rc_labels
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
    """Tokenizer ids are int32; masking and the guiding tasks' labels keep that dtype."""
    vocab = build_kmer_vocab(6)
    cfg = MaskConfig.for_vocab(vocab, p=0.3, mode=mode, master_seed=4)
    toks = with_sentinels(vocab, range(0, 4000, 37)).astype(np.int32)
    swapped, label = sop_transform(toks, 1.0, np.random.default_rng(0), first_special_id=vocab.n_nonspecial)
    assert label == 1 and swapped.dtype == np.int32
    plan = neighbor_mask(swapped, select_targets(swapped, cfg, 0), cfg)
    assert plan.in_mask.any()
    assert plan.input_ids.dtype == np.int32 and plan.original_ids.dtype == np.int32
    assert np.array_equal(plan.original_ids, swapped)
    masked, mst = mst_apply(swapped, plan)
    assert masked.dtype == np.int32 and mst.label_array.dtype == np.int32
    assert mst.labels == {0: vocab.special_id("CLS"), swapped.size - 1: vocab.special_id("SEP")}
    if mode == "fixed":
        ftm = ftm_targets(plan)
        assert ftm.label_array.size and ftm.label_array.dtype == np.int32
    csp = csp_targets(neighbor_mask(swapped, [], cfg), vocab)  # no targets leave every body position to CSP
    assert csp.label_array.size and csp.label_array.dtype == np.int32
