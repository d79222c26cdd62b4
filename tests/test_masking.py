import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnaprep import (
    ConfigError,
    MaskConfig,
    build_kmer_vocab,
    neighbor_mask,
    select_targets,
    verify_no_leakage,
)
from dnaprep.masking import _RNG_CHUNK, _seed_words, window_rng

V3 = build_kmer_vocab(3)
V6 = build_kmer_vocab(6)


def body_tokens(vocab, n, sentinels=True):
    """n body token ids (cycled over the non-special range) plus CLS/SEP."""
    body = [i % vocab.n_nonspecial for i in range(n)]
    if not sentinels:
        return np.array(body)
    return np.array([vocab.special_id("CLS")] + body + [vocab.special_id("SEP")])


class TestSelectTargets:
    def test_p_zero(self):
        cfg = MaskConfig.for_vocab(V3, p=0.0)
        assert select_targets(body_tokens(V3, 50), cfg, 0).size == 0

    def test_p_one_selects_all_nonspecial(self):
        cfg = MaskConfig.for_vocab(V3, p=1.0)
        toks = body_tokens(V3, 50)
        got = select_targets(toks, cfg, 0)
        assert list(got) == list(range(1, 51))

    def test_specials_never_selected(self):
        cfg = MaskConfig.for_vocab(V3, p=1.0)
        toks = body_tokens(V3, 10)
        got = set(select_targets(toks, cfg, 3).tolist())
        assert 0 not in got and toks.size - 1 not in got

    def test_deterministic_per_ordinal(self):
        cfg = MaskConfig.for_vocab(V3, p=0.3, master_seed=99)
        toks = body_tokens(V3, 200)
        a = select_targets(toks, cfg, 7)
        b = select_targets(toks, cfg, 7)
        c = select_targets(toks, cfg, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_binomial_rate(self):
        cfg = MaskConfig.for_vocab(V3, p=0.11, master_seed=5)
        toks = body_tokens(V3, 100_000, sentinels=False)
        rate = select_targets(toks, cfg, 0).size / toks.size
        assert abs(rate - 0.11) < 0.01


class TestNeighborMaskFixed:
    def test_spec_trace_k3(self):
        cfg = MaskConfig.for_vocab(V3, mode="fixed")
        toks = body_tokens(V3, 8)
        plan = neighbor_mask(toks, [4], cfg)
        assert plan.m_in_positions == (2, 3, 4, 5, 6)
        assert plan.m_positions == (4,)
        assert plan.labels == {4: int(toks[4])}
        assert all(plan.input_ids[p] == V3.mask_id for p in plan.m_in_positions)
        assert plan.input_ids[0] != V3.mask_id and plan.input_ids[-1] != V3.mask_id

    def test_specials_clip_expansion(self):
        cfg = MaskConfig.for_vocab(V3, mode="fixed")
        toks = body_tokens(V3, 4)
        plan = neighbor_mask(toks, [1], cfg)
        assert plan.m_in_positions == (1, 2, 3)  # 0 is CLS, excluded

    def test_k1_degenerate(self):
        v1 = build_kmer_vocab(1)
        cfg = MaskConfig.for_vocab(v1, mode="fixed")
        toks = body_tokens(v1, 10)
        plan = neighbor_mask(toks, [3, 7], cfg)
        assert plan.m_in_positions == (3, 7)
        assert set(plan.labels) == {3, 7}

    def test_empty_target_set(self):
        cfg = MaskConfig.for_vocab(V3, mode="fixed")
        plan = neighbor_mask(body_tokens(V3, 5), [], cfg)
        assert plan.m_positions == () and plan.m_in_positions == ()
        assert plan.labels == {}


class TestNeighborMaskFlawed:
    def test_spec_trace_k6(self):
        cfg = MaskConfig.for_vocab(V6, mode="flawed")
        toks = np.array([V6.special_id("CLS")] + [i + 1 for i in range(10)])
        plan = neighbor_mask(toks, [2], cfg)
        assert plan.m_in_positions == (0, 1, 2, 3, 4, 5)
        assert sorted(plan.labels) == [0, 1, 2, 3, 4, 5]
        assert plan.input_ids[0] == V6.mask_id  # [CLS] wrongly masked
        assert plan.labels[0] == V6.special_id("CLS")

    def test_offsets_are_asymmetric(self):
        cfg = MaskConfig.for_vocab(V6, mode="flawed")
        toks = body_tokens(V6, 20)
        plan = neighbor_mask(toks, [10], cfg)
        # Nbr = {-2..3} for k=6
        assert plan.m_in_positions == (8, 9, 10, 11, 12, 13)

    def test_labels_equal_m_in(self):
        cfg = MaskConfig.for_vocab(V6, mode="flawed")
        toks = body_tokens(V6, 30)
        plan = neighbor_mask(toks, [5, 20], cfg)
        assert sorted(plan.labels) == list(plan.m_in_positions)


class TestVerifyNoLeakage:
    def test_fixed_always_clean(self):
        cfg = MaskConfig.for_vocab(V6, mode="fixed")
        toks = body_tokens(V6, 40)
        plan = neighbor_mask(toks, [7, 8, 25], cfg)
        assert verify_no_leakage(plan, 6)

    def test_flawed_isolated_target_leaks(self):
        cfg = MaskConfig.for_vocab(V6, mode="flawed")
        toks = body_tokens(V6, 40)
        plan = neighbor_mask(toks, [20], cfg)
        assert not verify_no_leakage(plan, 6)

    def test_k1_always_clean(self):
        v1 = build_kmer_vocab(1)
        for mode in ("fixed", "flawed"):
            cfg = MaskConfig.for_vocab(v1, mode=mode)
            plan = neighbor_mask(body_tokens(v1, 12), [4], cfg)
            assert verify_no_leakage(plan, 1)


class TestDeterminism:
    @given(st.integers(0, 2**32), st.integers(0, 50), st.integers(5, 100))
    @settings(max_examples=30)
    def test_plan_reproducible(self, seed, ordinal, n):
        cfg = MaskConfig.for_vocab(V3, p=0.2, master_seed=seed)
        toks = body_tokens(V3, n)
        m1 = select_targets(toks, cfg, ordinal)
        m2 = select_targets(toks, cfg, ordinal)
        p1 = neighbor_mask(toks, m1, cfg)
        p2 = neighbor_mask(toks, m2, cfg)
        assert np.array_equal(p1.input_ids, p2.input_ids)
        assert p1.labels == p2.labels


class TestZeroLeakageFuzz:
    @given(st.integers(0, 10_000), st.sampled_from([1, 3, 6]), st.sampled_from([0.05, 0.11, 0.5]))
    @settings(max_examples=60)
    def test_fixed_mode_invariants(self, seed, k, p):
        vocab = build_kmer_vocab(k)
        cfg = MaskConfig.for_vocab(vocab, p=p, master_seed=seed, mode="fixed")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 512))
        toks = body_tokens(vocab, n)
        targets = select_targets(toks, cfg, 0)
        plan = neighbor_mask(toks, targets, cfg)
        assert verify_no_leakage(plan, k)
        assert plan.input_ids[0] != vocab.mask_id
        assert plan.input_ids[-1] != vocab.mask_id
        # within-distance unmasked neighbors of any target would be leakage
        in_set = set(plan.m_in_positions)
        for j in plan.m_positions:
            for i in range(max(0, j - k + 1), min(toks.size, j + k)):
                if i not in plan.special_positions:
                    assert i in in_set


class TestConfig:
    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            MaskConfig(p=1.5)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            MaskConfig(mode="both")

    def test_word_vocab_gets_k1(self):
        vw = build_kmer_vocab(4, kind="word")
        assert MaskConfig.for_vocab(vw).k == 1

    def test_negative_seed(self):
        with pytest.raises(ConfigError):
            MaskConfig(master_seed=-1)


_SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96]), st.integers(0, 2**96))
_ORDINALS = st.one_of(
    st.sampled_from([0, 1, 1023, 1024, 1025, 2**32 - 1, 2**32, 2**32 + 1, 2**32 + 1024]),
    st.integers(0, 2**40),
)
_TAGS = st.sampled_from([(), (0,), (1,), (2**35,)])


class TestWindowRng:
    """Against numpy's own SeedSequence and default_rng as the oracle."""

    @given(_SEEDS, _ORDINALS, _TAGS)
    @settings(max_examples=300, deadline=None)
    def test_seed_words_match_seed_sequence(self, seed, ordinal, tag):
        want = np.random.SeedSequence((seed, ordinal, *tag)).generate_state(4, np.uint64)
        got = _seed_words(seed, ordinal // _RNG_CHUNK, tag)[ordinal % _RNG_CHUNK]
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    @given(_SEEDS, _ORDINALS, _TAGS)
    @settings(max_examples=200, deadline=None)
    def test_generator_matches_default_rng(self, seed, ordinal, tag):
        got = window_rng(seed, ordinal, *tag)
        want = np.random.default_rng((seed, ordinal, *tag))
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.random(17), want.random(17))
        assert got.random() == want.random()
        assert np.array_equal(got.integers(0, 1000, 5), want.integers(0, 1000, 5))

    def test_every_row_of_a_chunk(self):
        for ordinal in range(2 * _RNG_CHUNK):
            want = np.random.SeedSequence((5, ordinal, 1)).generate_state(4, np.uint64)
            assert np.array_equal(_seed_words(5, ordinal // _RNG_CHUNK, (1,))[ordinal % _RNG_CHUNK], want)

    def test_generators_are_independent(self):
        a, b = window_rng(9, 3), window_rng(9, 3)
        first = a.random(4)
        assert np.array_equal(b.random(4), first)
        assert not np.array_equal(a.random(4), first)

    @pytest.mark.parametrize("args", [(0, -1), (0, -1024), (0, -(2**33)), (-1, 0), (0, 0, -1)])
    def test_negative_arguments_raise(self, args):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng(args)
        with pytest.raises(ValueError, match="non-negative"):
            window_rng(*args)

    def test_select_targets_draws_default_rng(self):
        cfg = MaskConfig.for_vocab(V3, p=0.3, master_seed=2**40 + 7)
        toks = body_tokens(V3, 300)
        for ordinal in (0, 1023, 1024, 2**32 + 5):
            draws = np.random.default_rng((cfg.master_seed, ordinal)).random(toks.size)
            want = np.flatnonzero((draws < cfg.p) & ~np.isin(toks, list(V3.special_ids)))
            assert np.array_equal(select_targets(toks, cfg, ordinal), want)


def test_import_leaves_numpy_random_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, dnaprep, dnaprep.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def reference_plan(tokens, targets, k, mode, special_ids, mask_id):
    """The plan written out position by position, from the module docstring."""
    n = len(tokens)
    special = {i for i, t in enumerate(tokens) if t in special_ids}
    m = sorted({p for p in targets if p not in special})
    if mode == "fixed":
        masked = {j for c in m for j in range(c - k + 1, c + k) if 0 <= j < n and j not in special}
        m_in = masked
        labeled = m
    else:
        masked = {j for c in m for j in range(c + 1 - k // 2, c + k - k // 2 + 1) if 0 <= j < n}
        m_in = masked | set(m)
        labeled = sorted(m_in)
    input_ids = [mask_id if i in masked else t for i, t in enumerate(tokens)]
    return input_ids, tuple(m), tuple(sorted(m_in)), {p: tokens[p] for p in labeled}, frozenset(special)


class TestNeighborMaskReference:
    @given(
        st.lists(st.integers(0, 68), max_size=60),
        st.lists(st.integers(0, 59), max_size=20),
        st.integers(1, 6),
        st.sampled_from(["fixed", "flawed"]),
    )
    @settings(max_examples=150)
    def test_matches_position_loop(self, body, picks, k, mode):
        # ids 64.. are V3's specials, so some positions are special
        cfg = MaskConfig(p=0.11, k=k, mode=mode, special_ids=V3.special_ids, mask_id=V3.mask_id)
        targets = [p for p in picks if p < len(body)]
        plan = neighbor_mask(np.array(body, dtype=np.int64), targets, cfg)
        input_ids, m, m_in, labels, special = reference_plan(body, targets, k, mode, V3.special_ids, V3.mask_id)
        assert plan.input_ids.tolist() == input_ids
        assert (plan.m_positions, plan.m_in_positions, plan.labels, plan.special_positions) == (
            m, m_in, labels, special
        )
        assert verify_no_leakage(plan, k) == all(
            j in m_in or j in special for c in labels for j in range(max(0, c - k + 1), min(len(body), c + k))
        )
