import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnaprep import (
    ConfigError,
    DataError,
    DnaSequence,
    TokenizerSpec,
    bpe_encode,
    bpe_train,
    bpe_train_sizes,
    build_kmer_vocab,
    decode_ids,
    kmer_tokenize,
    kmer_tokenize_parallel,
    tokenize,
    word_tokenize,
)
from dnaprep import tokenizers
from dnaprep.core import BPE, Vocabulary, _with_specials, bpe_vocab_from_merges
from dnaprep.tokenizers import N_MODES

acgt = st.text(alphabet="ACGT", max_size=120)
dna = st.text(alphabet="ACGTN", max_size=120)


def bpe_with_n_runs(vocab):
    """``vocab`` with the N-run tokens NN and N added, which seg_n mode needs."""
    tokens, specials = _with_specials(list(vocab.tokens[: vocab.n_nonspecial]) + ["NN", "N"])
    return Vocabulary(kind=BPE, tokens=tokens, specials=specials, merges=vocab.merges)


def segment_with_n(seq, k, priority=None):
    """String-level oracle of ``tokenizers._segmented_ids`` at stride k.

    Non-N stretches are tiled in steps of k (sub-k remainders dropped);
    each maximal N run is covered greedily by the longest priority token
    that fits, residual N's falling through to shorter tokens. ``priority``
    defaults to the homogeneous runs ``N*k .. N`` and must be sorted by
    decreasing length.
    """
    if priority is None:
        priority = ["N" * run for run in range(k, 0, -1)]
    if any(set(t) != {"N"} for t in priority):
        raise ConfigError("priority tokens must be homogeneous N runs")
    if list(priority) != sorted(priority, key=len, reverse=True):
        raise ConfigError("priority must be sorted by decreasing token length")
    out = []
    for run in re.findall("N+|[^N]+", seq.bases):
        if run[0] == "N":
            rem = len(run)
            for tok in priority:
                reps, rem = divmod(rem, len(tok))
                out.extend([tok] * reps)
            if rem:
                raise DataError(f"N run residue of {rem} not coverable by {priority}")
        else:
            out.extend(run[pos : pos + k] for pos in range(0, len(run) - k + 1, k))
    return out


def toks(vocab, ids):
    return [vocab.tokens[i] for i in ids]


class TestKmer:
    def test_fig_example(self):
        vocab = build_kmer_vocab(3)
        ids = kmer_tokenize(DnaSequence("ATCG"), TokenizerSpec(vocab))
        assert toks(vocab, ids) == ["ATC", "TCG"]

    def test_shorter_than_k(self):
        vocab = build_kmer_vocab(3)
        assert kmer_tokenize(DnaSequence("AT"), TokenizerSpec(vocab)).size == 0

    def test_n_as_unk(self):
        vocab = build_kmer_vocab(3)
        ids = kmer_tokenize(DnaSequence("ATNCG"), TokenizerSpec(vocab, n_mode="as_unk"))
        assert list(ids) == [vocab.unk_id] * 3

    def test_n_drop(self):
        vocab = build_kmer_vocab(3)
        ids = kmer_tokenize(DnaSequence("ATNCGA"), TokenizerSpec(vocab, n_mode="drop"))
        assert toks(vocab, ids) == ["CGA"]

    def test_sentinels(self):
        vocab = build_kmer_vocab(3)
        ids = kmer_tokenize(DnaSequence("ATCG"), TokenizerSpec(vocab, add_sentinels=True))
        assert ids[0] == vocab.special_id("CLS") and ids[-1] == vocab.special_id("SEP")
        assert toks(vocab, ids[1:-1]) == ["ATC", "TCG"]

    @given(acgt)
    def test_length_law(self, bases):
        vocab = build_kmer_vocab(3)
        ids = kmer_tokenize(DnaSequence(bases), TokenizerSpec(vocab))
        assert ids.size == max(0, len(bases) - 3 + 1)

    @given(st.text(alphabet="ACGT", min_size=4, max_size=120))
    def test_consecutive_overlap(self, bases):
        k = 3
        vocab = build_kmer_vocab(k)
        ids = kmer_tokenize(DnaSequence(bases), TokenizerSpec(vocab))
        strings = toks(vocab, ids)
        for left, right in zip(strings, strings[1:]):
            assert left[1:] == right[:-1]

    def test_matches_python_reference(self):
        vocab = build_kmer_vocab(4)
        bases = "ACGTTGCAACGTAGCTAGCT"
        ids = kmer_tokenize(DnaSequence(bases), TokenizerSpec(vocab))
        ref = [vocab.id_of(bases[i : i + 4]) for i in range(len(bases) - 3)]
        assert list(ids) == ref

    @given(dna, st.integers(1, 7), st.integers(1, 9))
    @settings(max_examples=200)
    def test_blocks_match_python_reference(self, bases, k, block):
        vocab = build_kmer_vocab(k)
        kmers = [bases[i : i + k] for i in range(len(bases) - k + 1)]
        ref = [vocab.unk_id if "N" in kmer else vocab.id_of(kmer) for kmer in kmers]
        with mock.patch.object(tokenizers, "_VALUE_BLOCK", block):
            ids = kmer_tokenize(DnaSequence(bases), TokenizerSpec(vocab))
        assert ids.tolist() == ref

    def test_kind_guard(self):
        vocab = build_kmer_vocab(3, kind="word")
        with pytest.raises(ConfigError):
            kmer_tokenize(DnaSequence("ACGT"), TokenizerSpec(vocab))


class TestWord:
    def test_exact_tiling(self):
        vocab = build_kmer_vocab(3, kind="word")
        ids = word_tokenize(DnaSequence("ATCGGA"), TokenizerSpec(vocab))
        assert toks(vocab, ids) == ["ATC", "GGA"]

    def test_remainder_dropped(self):
        vocab = build_kmer_vocab(3, kind="word")
        ids = word_tokenize(DnaSequence("ATCGG"), TokenizerSpec(vocab))
        assert toks(vocab, ids) == ["ATC"]

    def test_shorter_than_window(self):
        vocab = build_kmer_vocab(6, kind="word")
        assert word_tokenize(DnaSequence("ATCG"), TokenizerSpec(vocab)).size == 0

    @given(acgt)
    def test_length_law(self, bases):
        vocab = build_kmer_vocab(3, kind="word")
        ids = word_tokenize(DnaSequence(bases), TokenizerSpec(vocab))
        assert ids.size == len(bases) // 3


class TestSegmentWithN:
    def test_trace_mixed(self):
        got = segment_with_n(DnaSequence("AANNNNAT"), 2, ["NN", "N"])
        assert got == ["AA", "NN", "NN", "AT"]

    def test_trace_greedy(self):
        assert segment_with_n(DnaSequence("NNN"), 2, ["NN", "N"]) == ["NN", "N"]

    def test_no_n(self):
        assert segment_with_n(DnaSequence("ACGT"), 2, ["N"]) == ["AC", "GT"]

    def test_uncoverable_residue(self):
        with pytest.raises(DataError):
            segment_with_n(DnaSequence("NNN"), 2, ["NN"])

    def test_priority_must_be_sorted(self):
        with pytest.raises(ConfigError):
            segment_with_n(DnaSequence("NN"), 2, ["N", "NN"])

    @given(dna)
    def test_coverage_and_no_straddle(self, bases):
        k = 3
        parts = segment_with_n(DnaSequence(bases), k)
        # Rebuild: walking the parts must reproduce the input except for
        # dropped sub-k non-N remainders, and no token mixes N with ACGT.
        pos = 0
        for part in parts:
            assert set(part) == {"N"} or "N" not in part
            idx = bases.find(part, pos)
            assert idx >= 0 and idx - pos <= k - 1
            pos = idx + len(part)

    @given(dna, st.integers(1, 4))
    def test_segmented_ids_match_oracle(self, bases, k):
        vocab = build_kmer_vocab(k, include_n_tokens=True, kind="word")
        got = tokenizers._segmented_ids(bases, vocab, k)
        want = [vocab.id_of(t) for t in segment_with_n(DnaSequence(bases), k, vocab.n_run_tokens())]
        assert got.tolist() == want

    def test_seg_mode_word_matches_algorithm(self):
        vocab = build_kmer_vocab(2, include_n_tokens=True, kind="word")
        ids = word_tokenize(DnaSequence("AANNNNAT"), TokenizerSpec(vocab, n_mode="seg_n"))
        assert toks(vocab, ids) == ["AA", "NN", "NN", "AT"]

    def test_seg_mode_kmer_overlaps_within_runs(self):
        vocab = build_kmer_vocab(2, include_n_tokens=True)
        ids = kmer_tokenize(DnaSequence("ACGNNTAC"), TokenizerSpec(vocab, n_mode="seg_n"))
        assert toks(vocab, ids) == ["AC", "CG", "NN", "TA", "AC"]

    def test_seg_mode_requires_n_tokens(self):
        vocab = build_kmer_vocab(2)
        with pytest.raises(ConfigError):
            TokenizerSpec(vocab, n_mode="seg_n")


class TestBpeTrain:
    def test_spec_trace(self):
        vocab = bpe_train([DnaSequence("ATATAT")], 5)
        assert vocab.merges == (("A", "T"),)
        assert vocab.tokens[: vocab.n_nonspecial] == ("A", "C", "G", "T", "AT")

    def test_base_alphabet_only(self):
        vocab = bpe_train([DnaSequence("ACGTACGT")], 4)
        assert vocab.merges == ()
        assert vocab.n_nonspecial == 4

    def test_merge_count(self):
        vocab = bpe_train([DnaSequence("ACGTACGTACGTACGT" * 8)], 12)
        assert len(vocab.merges) == 8
        assert vocab.n_nonspecial == 12

    def test_exhaustion_warns(self):
        with pytest.warns(UserWarning, match="exhausted"):
            vocab = bpe_train([DnaSequence("AT")], 10)
        assert vocab.n_nonspecial == 5  # A C G T AT

    def test_deterministic_across_trainings(self):
        corpus = "ACGTTGCATTACGGATACGT" * 50
        a = bpe_train([DnaSequence(corpus)], 24)
        b = bpe_train([DnaSequence(corpus)], 24)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_no_merge_across_n(self):
        # AT never adjacent within a run; only A|T across the N boundary
        vocab = bpe_train([DnaSequence("ANTANTANT")], 5)
        assert ("A", "T") not in vocab.merges

    def test_tie_break_lexicographic(self):
        # CG and TA both occur twice; CG wins the tie alphabetically
        vocab = bpe_train([DnaSequence("CGTACGTA")], 5)
        assert vocab.merges[0] == ("C", "G")

    def test_snapshot_equals_direct_training(self):
        corpus = [DnaSequence("ACGTTGCATTACGGATACGTAACCGGTT" * 20)]
        snaps = bpe_train_sizes(corpus, [8, 16])
        direct = bpe_train(corpus, 8)
        assert snaps[8].to_json_bytes() == direct.to_json_bytes()

    def test_nonoverlapping_counts(self):
        # AAAA has two non-overlapping AA occurrences, AAA would have one;
        # after one merge the corpus is AA AA -> next merge is (AA, AA).
        vocab = bpe_train([DnaSequence("AAAA")], 6)
        assert vocab.merges == (("A", "A"), ("AA", "AA"))

    def test_duplicate_output_reuses_id_and_recounts(self):
        # A merge whose output string already exists must reuse the id and
        # keep exact counts. The situation cannot arise from these corpora
        # naturally, so pre-register the string to force the path.
        from dnaprep.tokenizers import _BpeState

        state = _BpeState(["ATATATA", "TATA"])
        state.strings.append("AT")
        state.str_to_id["AT"] = 4
        new_id, fresh = state.merge((0, 3))  # (A, T) -> existing "AT"
        assert new_id == 4 and not fresh
        # authoritative recount: walk the linked list and recount all pairs
        expected: dict = {}
        for head in range(len(state.tok)):
            if state.prv[head] != -1 or state.tok[head] == -1:
                continue
            run = []
            pos = head
            while pos != -1:
                run.append(state.tok[pos])
                pos = state.nxt[pos]
            last_end: dict = {}
            for i in range(len(run) - 1):
                pair = (run[i], run[i + 1])
                if last_end.get(pair, -1) > i:
                    continue
                expected[pair] = expected.get(pair, 0) + 1
                last_end[pair] = i + 2
        live = {p: state.count(p) for p in state.positions}
        assert live == expected


class TestBpeEncode:
    def test_single_merge(self):
        vocab = bpe_vocab_from_merges([("A", "T")])
        ids = bpe_encode(DnaSequence("ATAT"), vocab)
        assert toks(vocab, ids) == ["AT", "AT"]

    def test_no_merges(self):
        vocab = bpe_vocab_from_merges([])
        ids = bpe_encode(DnaSequence("ACGT"), vocab)
        assert toks(vocab, ids) == ["A", "C", "G", "T"]

    def test_merge_order_respected(self):
        vocab = bpe_vocab_from_merges([("A", "T"), ("AT", "C")])
        ids = bpe_encode(DnaSequence("ATC"), vocab)
        assert toks(vocab, ids) == ["ATC"]

    def test_n_as_unk_per_nucleotide(self):
        vocab = bpe_vocab_from_merges([("A", "T")])
        ids = bpe_encode(DnaSequence("ATNNAT"), vocab, n_mode="as_unk")
        assert toks(vocab, ids) == ["AT", "[UNK]", "[UNK]", "AT"]

    def test_n_blocks_merges(self):
        vocab = bpe_vocab_from_merges([("A", "T")])
        ids = bpe_encode(DnaSequence("ANT"), vocab, n_mode="drop")
        assert toks(vocab, ids) == ["A", "T"]

    @given(acgt)
    @settings(max_examples=50)
    def test_round_trip(self, bases):
        vocab = bpe_vocab_from_merges([("A", "T"), ("C", "G"), ("AT", "CG"), ("G", "A")])
        ids = bpe_encode(DnaSequence(bases), vocab)
        assert decode_ids(ids, vocab) == bases

    @given(acgt)
    @settings(max_examples=25)
    def test_round_trip_trained(self, bases):
        corpus = "ACGTTGCATTACGGATACGT" * 10
        vocab = bpe_train([DnaSequence(corpus)], 12)
        ids = bpe_encode(DnaSequence(bases), vocab)
        assert decode_ids(ids, vocab) == bases


class TestParallel:
    @given(st.text(alphabet="ACGTN", max_size=300), st.integers(2, 5), st.integers(1, 40))
    @settings(max_examples=30)
    def test_matches_serial(self, bases, threads, min_chunk):
        # a few-window minimum chunk lets these short inputs split
        vocab = build_kmer_vocab(3)
        spec = TokenizerSpec(vocab, add_sentinels=True)
        serial = kmer_tokenize(DnaSequence(bases), spec)
        with mock.patch.object(tokenizers, "_MIN_CHUNK", min_chunk):
            parallel = kmer_tokenize_parallel(DnaSequence(bases), spec, threads)
        assert np.array_equal(serial, parallel)

    def test_chunks_are_never_shorter_than_the_minimum(self):
        spec = TokenizerSpec(build_kmer_vocab(3))
        pools = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        with mock.patch.object(tokenizers, "_MIN_CHUNK", 10):
            with mock.patch.object(tokenizers, "ThreadPoolExecutor", Pool):
                for n_windows, threads in [(19, 8), (20, 8), (35, 8), (1000, 3), (500, 1)]:
                    bases = ("ACGT" * n_windows)[: n_windows + 2]
                    kmer_tokenize_parallel(DnaSequence(bases), spec, threads)
        assert pools == [2, 3, 3]


_BPE_N = bpe_with_n_runs(bpe_train([DnaSequence("ACGTTGCAACGTAAACCCGGGTTT" * 4)], 12))


@pytest.mark.parametrize("sentinels", [False, True])
@pytest.mark.parametrize("n_mode", N_MODES)
@pytest.mark.parametrize("kind", ["kmer", "word", "bpe"])
def test_ids_are_int32(kind, n_mode, sentinels):
    vocab = _BPE_N if kind == "bpe" else build_kmer_vocab(3, include_n_tokens=True, kind=kind)
    spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
    for bases in ("", "AC", "NNN", "ACGTNNNACGTTGCAN", "ACGTTGCAACGT"):
        ids = tokenize(DnaSequence(bases), spec)
        assert ids.dtype == np.int32, (bases, ids.dtype)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stride_one_window_values_memory_per_base():
    """Only the int32 values and the N flags span the record (5 bytes per
    base); the rest is one block's int32 codes and values."""
    rng = np.random.default_rng(1)
    n = 1 << 20
    codes = rng.integers(0, 4, n).astype(np.uint8)
    codes[rng.random(n) < 0.02] = 4
    (vals, has_n), peak = _peak_bytes(tokenizers._window_values, codes, 6, 1)
    assert peak < 5 * n + 9 * tokenizers._VALUE_BLOCK
    want = sum(np.minimum(codes[j : j + n - 5], 3).astype(np.int64) << (2 * (5 - j)) for j in range(6))
    assert np.array_equal(vals, want)
    assert vals.dtype == np.int32
    assert np.array_equal(has_n, np.convolve(codes == 4, np.ones(6, dtype=int), "valid") > 0)
    seq = DnaSequence(np.frombuffer(b"ACGTN", dtype=np.uint8)[codes].tobytes().decode("ascii"))
    ids, peak = _peak_bytes(tokenize, seq, TokenizerSpec(build_kmer_vocab(6), add_sentinels=True))
    assert ids.size == n - 3
    assert peak / n < 8.25
