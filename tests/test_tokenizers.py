import dataclasses
import functools
import itertools
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnaprep import (
    ConfigError,
    CullSpec,
    DataError,
    DnaSequence,
    TokenizerSpec,
    bpe_encode,
    bpe_train,
    bpe_train_sizes,
    build_kmer_vocab,
    cull_vocab,
    decode_ids,
    iter_windows,
    kmer_tokenize,
    kmer_tokenize_parallel,
    tokenize,
    word_tokenize,
)
from dnaprep import core, tokenizers
from dnaprep.core import BPE, MAX_K, Vocabulary, _with_specials, bpe_vocab_from_merges
from dnaprep.tokenizers import N_MODES

acgt = st.text(alphabet="ACGT", max_size=120)
dna = st.text(alphabet="ACGTN", max_size=120)


def bpe_with_n_runs(vocab):
    """``vocab`` with the N-run tokens NN and N added, which seg_n mode needs."""
    tokens, specials = _with_specials(list(vocab.tokens[: vocab.n_nonspecial]) + ["NN", "N"])
    return Vocabulary(kind=BPE, tokens=tokens, specials=specials, merges=vocab.merges)


def segment_with_n(seq, k, priority=None):
    """String-level oracle of seg_n mode at stride k (the word tokenizer).

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


def without_specials(vocab, *names):
    """``vocab`` with the special tokens ``names`` left out."""
    base = list(vocab.tokens[: vocab.n_nonspecial])
    keep = [name for name in vocab.specials if name not in names]
    specials = {name: len(base) + i for i, name in enumerate(keep)}
    tokens = base + [f"[{name}]" for name in keep]
    return Vocabulary(kind=vocab.kind, tokens=tokens, specials=specials, k=vocab.k, merges=vocab.merges)


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
        got = word_tokenize(DnaSequence(bases), TokenizerSpec(vocab, n_mode="seg_n"))
        cover = [vocab.tokens[i] for _, i in vocab.n_run_cover]
        want = [vocab.id_of(t) for t in segment_with_n(DnaSequence(bases), k, cover)]
        assert got.tolist() == want

    def test_seg_mode_word_matches_algorithm(self):
        vocab = build_kmer_vocab(2, include_n_tokens=True, kind="word")
        ids = word_tokenize(DnaSequence("AANNNNAT"), TokenizerSpec(vocab, n_mode="seg_n"))
        assert toks(vocab, ids) == ["AA", "NN", "NN", "AT"]

    def test_seg_mode_kmer_overlaps_within_runs(self):
        vocab = build_kmer_vocab(2, include_n_tokens=True)
        ids = kmer_tokenize(DnaSequence("ACGNNTAC"), TokenizerSpec(vocab, n_mode="seg_n"))
        assert toks(vocab, ids) == ["AC", "CG", "NN", "TA", "AC"]

    @given(
        st.text(alphabet="ACGTN", max_size=200), st.sampled_from(["kmer_seg_n", "bpe_as_unk", "bpe_drop"]), st.booleans()
    )
    @example(bases="", mode="kmer_seg_n", sentinels=True)
    @example(bases="NNNN", mode="bpe_as_unk", sentinels=False)
    @example(bases="NACGTNNACN", mode="kmer_seg_n", sentinels=False)
    @example(bases="NACGTNNACN", mode="bpe_drop", sentinels=True)
    @settings(max_examples=300, deadline=None)
    def test_split_at_n_matches_a_regex_split(self, bases, mode, sentinels):
        """The stretches handed to ``encode`` and the N runs' tokens are those of a regex split at N runs."""
        kind, n_mode = mode.split("_", 1)
        vocab = build_kmer_vocab(3, include_n_tokens=True) if kind == "kmer" else _BPE_N
        spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
        seen = []

        def encode(stretch):
            seen.append(stretch)
            return np.full(len(stretch), -1, dtype=np.int32)

        ids = tokenizers._split_at_n(bases, spec, encode)
        runs = [run[0] for run in re.finditer("N+|[^N]+", bases)]
        assert seen == [run for run in runs if run[0] != "N"]
        want = [vocab.special_id("CLS")] if sentinels else []
        for run in runs:
            if run[0] != "N":
                want += [-1] * len(run)
            elif n_mode == "seg_n":
                want += tokenizers._cover_n_run(len(run), vocab.n_run_cover).tolist()
            elif n_mode == "as_unk":
                want += [vocab.unk_id] * len(run)
        want += [vocab.special_id("SEP")] if sentinels else []
        assert ids.dtype == np.int32 and ids.tolist() == want

    def test_seg_mode_requires_n_tokens(self):
        vocab = build_kmer_vocab(2)
        with pytest.raises(ConfigError):
            TokenizerSpec(vocab, n_mode="seg_n")

    @pytest.mark.parametrize("kind", ["kmer", "word", "bpe"])
    def test_n_run_cover_is_built_once_per_vocabulary(self, kind):
        vocab = _BPE_N if kind == "bpe" else build_kmer_vocab(3, include_n_tokens=True, kind=kind)
        spec = TokenizerSpec(vocab, n_mode="seg_n", add_sentinels=True)
        cover = vocab.n_run_cover
        for window in iter_windows([DnaSequence("ACGTNNNNNACGTTN" * 20)], 32):
            tokenize(window, spec)
        assert vocab.n_run_cover is cover
        assert TokenizerSpec(vocab, n_mode="seg_n").vocab.n_run_cover is cover

    @pytest.mark.parametrize("field, value", [("n_mode", "bogus"), ("n_mode", "seg_n"), ("add_sentinels", True)])
    def test_spec_fields_cannot_be_assigned(self, field, value):
        """A spec is checked once, on construction, so its fields are frozen."""
        spec = TokenizerSpec(build_kmer_vocab(3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, field, value)
        assert (spec.n_mode, spec.add_sentinels) == ("as_unk", False)

    @pytest.mark.parametrize("value", [2, "no", 1, 0, None, np.True_])
    def test_add_sentinels_must_be_a_bool(self, value):
        """A non-bool is refused when the spec is built: 2 once gave ids outside the
        vocabulary and "no" a bare ValueError inside tokenize."""
        with pytest.raises(ConfigError, match=re.escape(f"add_sentinels must be True or False, got {value!r}")):
            TokenizerSpec(build_kmer_vocab(3), add_sentinels=value)


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

    @pytest.mark.parametrize("sizes", [[2, 16], [3], [0, 4], [-1, 8, 12]])
    def test_sizes_below_the_alphabet_are_rejected(self, sizes):
        corpus = [DnaSequence("ACGTTGCATTACGGATACGTAACCGGTT" * 20)]
        with pytest.raises(ConfigError, match="target_size must be >= 4"):
            bpe_train(corpus, min(sizes))
        with pytest.raises(ConfigError, match="target_size must be >= 4"):
            bpe_train_sizes(corpus, sizes)

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

    @pytest.mark.parametrize(
        "missing, n_mode, sentinels",
        [
            ((), "bogus", False),
            ((), "seg_n", False),
            (("UNK",), "as_unk", False),
            (("CLS",), "drop", True),
            (("SEP",), "drop", True),
            ((), "as_unk", 2),
            ((), "drop", "no"),
        ],
    )
    def test_rejects_what_the_spec_rejects(self, missing, n_mode, sentinels):
        vocab = without_specials(bpe_vocab_from_merges([("A", "T")]), *missing)
        with pytest.raises(ConfigError) as spec_error:
            TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
        with pytest.raises(ConfigError) as encode_error:
            bpe_encode(DnaSequence("ATNAT"), vocab, n_mode=n_mode, add_sentinels=sentinels)
        assert str(encode_error.value) == str(spec_error.value)

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

    def test_merge_table_is_built_once_per_vocabulary(self, monkeypatch):
        vocab = bpe_vocab_from_merges([("A", "T"), ("C", "G"), ("AT", "CG")])
        seen = []
        encode_run = tokenizers._bpe_run_ids

        def recording(run, table):
            seen.append(table)
            return encode_run(run, table)

        monkeypatch.setattr(tokenizers, "_bpe_run_ids", recording)
        assert "merge_table" not in vars(vocab)
        for _ in range(2):
            assert toks(vocab, bpe_encode(DnaSequence("ATCGNATCG"), vocab)) == ["ATCG", "[UNK]", "ATCG"]
        assert len(seen) == 4  # two runs per encode
        assert all(table is vocab.merge_table for table in seen)
        table = vocab.merge_table
        assert table.strings == ("A", "C", "G", "T", "AT", "CG", "ATCG")
        assert table.rules == ((0, 3, 4), (1, 2, 5), (4, 5, 6))
        assert table.pair_ranks == {0 << 3 | 3: 0, 1 << 3 | 2: 1, 4 << 3 | 5: 2}
        assert table.ids.tolist() == [vocab.id_of(s) for s in table.strings]


@pytest.mark.parametrize("bad", [-1, 69, 999])
def test_decode_rejects_ids_outside_the_vocabulary(bad):
    vocab = build_kmer_vocab(3)  # 64 k-mers and 5 specials: ids 0 .. 68
    with pytest.raises(DataError, match=f"id {bad} is not in the vocabulary of 69 ids"):
        decode_ids([bad, 0], vocab)


class TestParallel:
    @given(
        st.text(alphabet="ACGTN", max_size=300),
        st.integers(2, 5),
        st.integers(1, 12),
        st.integers(1, 8),
        st.sampled_from(N_MODES),
        st.booleans(),
        st.sampled_from(["kmer", "culled"]),
    )
    @example("ACGTNACGTACGTACGTACGTTTTGGGAAACCCNACGTA", 3, 5, 2, "drop", True, "culled")
    @example("ACGTTGCAACCGGTTA" * 3, 3, 2, 7, "seg_n", True, "kmer")  # N-free seg_n input: threaded spans
    @settings(max_examples=80, deadline=None)
    def test_matches_serial(self, bases, threads, min_chunk, block, n_mode, sentinels, kind):
        # a few-window minimum chunk lets these short inputs split, and a
        # few-window block gives each span several blocks, so that drop-mode
        # spans compact and move; the culled vocabulary has a value table
        spec = TokenizerSpec(oracle_vocab(kind, 3), n_mode=n_mode, add_sentinels=sentinels)
        serial = kmer_tokenize(DnaSequence(bases), spec)
        with mock.patch.object(tokenizers, "_MIN_CHUNK", min_chunk):
            with mock.patch.object(tokenizers, "_VALUE_BLOCK", block):
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
            with mock.patch("concurrent.futures.ThreadPoolExecutor", Pool):
                for n_windows, threads in [(19, 8), (20, 8), (35, 8), (1000, 3), (500, 1)]:
                    bases = ("ACGT" * n_windows)[: n_windows + 2]
                    kmer_tokenize_parallel(DnaSequence(bases), spec, threads)
        assert pools == [2, 3, 3]

    @pytest.mark.parametrize("threads", [0, -3])
    @pytest.mark.parametrize("length", [0, 8, 2400])
    def test_threads_below_one_are_rejected(self, threads, length):
        spec = TokenizerSpec(build_kmer_vocab(3))
        with mock.patch.object(tokenizers, "_MIN_CHUNK", 10):
            with pytest.raises(ConfigError, match=f"threads must be >= 1, got {threads}"):
                kmer_tokenize_parallel(DnaSequence(("ACGT" * 600)[:length]), spec, threads)


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


def _two_percent_n(n, share=0.02):
    """``n`` random bases, ``share`` of them N (2% unless given), and the number of 6-mer windows holding an N."""
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 4, n).astype(np.uint8)
    codes[rng.random(n) < share] = 4
    n_windows = int((np.convolve(codes == 4, np.ones(6, dtype=int), "valid") > 0).sum())
    return DnaSequence(np.frombuffer(b"ACGTN", dtype=np.uint8)[codes].tobytes().decode("ascii")), n_windows


# 2% scattered N, whose windows _n_flags flags block by block, and one N per ~5 kb, which the N walk takes
_MEMORY_N_SHARES = (0.02, 0.0002)


def test_stride_one_tokenize_memory_per_base():
    """``tokenize`` holds the ASCII bases and the ids (with their two
    sentinel slots) and handles each block's N windows in place, or the
    N runs' windows, in both modes; the rest is one block's digits and
    narrow window values."""
    n = 1 << 20
    for share in _MEMORY_N_SHARES:
        seq, n_windows = _two_percent_n(n, share)
        ids, peak = _peak_bytes(tokenize, seq, TokenizerSpec(build_kmer_vocab(6), add_sentinels=True))
        assert ids.size == n - 3
        assert peak / n < 5.5, share
        spec = TokenizerSpec(build_kmer_vocab(6), n_mode="drop", add_sentinels=True)
        ids, peak = _peak_bytes(tokenize, seq, spec)
        assert ids.size == n - 3 - n_windows
        assert peak / n < 5.75, share
        # the dropped windows' slots are given back: the ids own exactly their own bytes
        assert ids.base is None and ids.nbytes == 4 * ids.size


def test_threaded_tokenize_memory_per_base():
    """Two spans fill the serial encoder's one output array, so threaded
    encoding stays within the serial bounds: each thread adds one block.
    (This module imports ``concurrent.futures`` itself, so the pool's
    first import is not part of the peak.)"""
    n = 2 * tokenizers._MIN_CHUNK + 5  # exactly two spans' worth of 6-mer windows
    for share in _MEMORY_N_SHARES:
        seq, n_windows = _two_percent_n(n, share)
        spec = TokenizerSpec(build_kmer_vocab(6), add_sentinels=True)
        ids, peak = _peak_bytes(kmer_tokenize_parallel, seq, spec, 2)
        assert ids.size == n - 3
        assert peak / n < 5.5, share
        spec = TokenizerSpec(build_kmer_vocab(6), n_mode="drop", add_sentinels=True)
        ids, peak = _peak_bytes(kmer_tokenize_parallel, seq, spec, 2)
        assert ids.size == n - 3 - n_windows
        assert peak / n < 5.75, share
        assert ids.base is None and ids.nbytes == 4 * ids.size


# -- window-kernel oracles ---------------------------------------------------

_DIGIT = str.maketrans("ACGTN", "01233")


def reference_values(bases, k, stride=1):
    """Base-4 value (N read as T) and contains-N flag of each width-k window, one at a time."""
    windows = [bases[p : p + k] for p in range(0, len(bases) - k + 1, stride)]
    return [int(w.translate(_DIGIT), 4) for w in windows], ["N" in w for w in windows]


def reference_ids(vocab, bases, n_mode, sentinels):
    """The spec's ids built one token string at a time through ``vocab``'s dict."""
    k = vocab.k
    stride = 1 if vocab.kind == "kmer" else k

    def look(token):
        return vocab._token_to_id.get(token, vocab.cull_id)

    ids = []
    if n_mode == "seg_n":
        for run in re.findall("N+|[^N]+", bases):
            if run[0] == "N":
                cover = [vocab.tokens[i] for _, i in vocab.n_run_cover]
                ids.extend(vocab.id_of(t) for t in segment_with_n(DnaSequence(run), k, cover))
            else:
                ids.extend(look(run[p : p + k]) for p in range(0, len(run) - k + 1, stride))
    else:
        for p in range(0, len(bases) - k + 1, stride):
            window = bases[p : p + k]
            if "N" not in window:
                ids.append(look(window))
            elif n_mode == "as_unk":
                ids.append(vocab.unk_id)
    if sentinels:
        ids = [vocab.special_id("CLS"), *ids, vocab.special_id("SEP")]
    return ids


@st.composite
def long_bases(draw, max_size=4096):
    """Up to 4 kb, across the correlate/shift-add crossover: N-free, with N runs, or N-rich."""
    n = draw(st.integers(0, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, 4, n)
    kind = draw(st.sampled_from(["n_free", "n_runs", "n_rich"]))
    if kind == "n_rich":
        codes[rng.random(n) < 0.3] = 4
    elif kind == "n_runs" and n:
        for start in rng.integers(0, n, size=int(rng.integers(1, 4))):
            codes[start : start + int(rng.integers(1, 40))] = 4
    return "".join("ACGTN"[c] for c in codes)


@functools.lru_cache(maxsize=None)
def oracle_vocab(kind, k):
    """A k-mer, word, culled k-mer or culled word vocabulary (the shapes the tokenizers treat differently).

    Each holds the N tokens.
    """
    if kind not in ("culled", "culled_word"):
        return build_kmer_vocab(k, include_n_tokens=True, kind=kind)
    full = build_kmer_vocab(k, include_n_tokens=True, kind="word" if kind == "culled_word" else "kmer")
    gone = frozenset(range(1, 4**k, 7)[: int(0.1 * full.n_nonspecial)])  # k-mers only
    return cull_vocab(full, CullSpec(gone))[0]


@functools.lru_cache(maxsize=None)
def identity_vocab(kind, k):
    """A k-mer or word vocabulary whose id of every k-mer is its base-4 value.

    Up to k = 8 it is the complete vocabulary. Past that 4**k tokens are
    too many to build, so the four homopolymers stand in, with the value
    table marked as the identity that a complete vocabulary's would be.
    """
    if k <= 8:
        return oracle_vocab(kind, k)
    tokens, specials = _with_specials([base * k for base in "ACGT"])
    vocab = Vocabulary(kind=kind, tokens=tokens, specials=specials, k=k)
    vars(vocab)["kmer_value_table"] = None  # fills the cache the property would otherwise build
    return vocab


_N_LAYOUTS = [
    "n_free",
    "n_first",
    "n_last",
    "run_below_k",
    "run_above_k",
    "all_n",
    "n_rich",
    "runs_at_both_ends",
    "next_to_sentinels",
    "runs_within_k",
    "run_across_block_edge",
    "run_longer_than_block",
]
_CRAFTED_BLOCK = 3  # windows per block where a test patches _VALUE_BLOCK to a few windows


def _crafted_bases(n, k, layout, stride=1):
    """``n`` seeded random bases with the N layout named ``layout``.

    The block layouts are laid out for blocks of ``_CRAFTED_BLOCK``
    windows at ``stride``.
    """
    rng = np.random.default_rng((n, k, _N_LAYOUTS.index(layout)))
    codes = rng.integers(0, 4, n)
    edge = _CRAFTED_BLOCK * stride  # the first base of the second block's first window
    if layout == "n_first":
        codes[:1] = 4
    elif layout == "n_last":
        codes[-1:] = 4
    elif layout == "run_below_k":
        codes[n // 3 : n // 3 + max(k - 1, 1)] = 4
    elif layout == "run_above_k":
        codes[n // 3 : n // 3 + 2 * k + 1] = 4
    elif layout == "all_n":
        codes[:] = 4
    elif layout == "n_rich":
        codes[rng.random(n) < 0.3] = 4
    elif layout == "runs_at_both_ends":
        codes[:2] = codes[-2:] = 4
    elif layout == "next_to_sentinels":  # the last base of the first window and the first base of the last
        codes[min(k, n) - 1 :: max(n - 2 * k + 1, 1)][:2] = 4
    elif layout == "runs_within_k":  # k - 1 bases apart: windows that hold both
        codes[n // 3 : n // 3 + 1] = codes[n // 3 + k : n // 3 + k + 1] = 4
    elif layout == "run_across_block_edge":
        codes[edge - 1 : edge + 1] = 4
    elif layout == "run_longer_than_block":
        codes[edge - 1 : edge + 2 * edge + k] = 4
    return "".join("ACGTN"[c] for c in codes)


def identity_ids(vocab, bases, stride, n_mode, sentinels):
    """The ids of a vocabulary whose id of every k-mer is its value: [UNK] or nothing at N windows."""
    values, has_n = reference_values(bases, vocab.k, stride)
    ids = [vocab.unk_id if n else v for v, n in zip(values, has_n) if not (n and n_mode == "drop")]
    return [vocab.special_id("CLS"), *ids, vocab.special_id("SEP")] if sentinels else ids


def window_ids(bases, k, stride):
    """``_fixed_width_ids`` in as_unk mode through ``identity_vocab`` and the want list.

    The ids are the kernel's values with [UNK] at the N windows.
    """
    vocab = identity_vocab("kmer" if stride == 1 else "word", k)
    ids = tokenizers._fixed_width_ids(bases, TokenizerSpec(vocab), stride, sentinels=False)
    return ids, identity_ids(vocab, bases, stride, "as_unk", sentinels=False)


# _N_WALK_WINDOWS as shipped, patched so that the N walk never gives up, and patched so that it gives
# up at the second run (every input with two or more runs flags its windows with _n_flags)
_N_WALKS = [tokenizers._N_WALK_WINDOWS, 0, 1 << 40]


class TestWindowKernels:
    @given(long_bases(), st.integers(1, 12), st.sampled_from([tokenizers._CORRELATE_MAX, 0, 1 << 30]))
    @settings(max_examples=200, deadline=None)
    def test_values_match_per_kmer_reference(self, bases, k, correlate_max):
        """Both value kernels, forced or chosen by length, against int(kmer, 4)."""
        with mock.patch.object(tokenizers, "_CORRELATE_MAX", correlate_max):
            ids, want = window_ids(bases, k, 1)
        assert ids.dtype == np.int32
        assert ids.tolist() == want

    @given(long_bases(), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_word_values_match_per_kmer_reference(self, bases, k):
        ids, want = window_ids(bases, k, k)
        assert ids.tolist() == want

    @given(
        long_bases(),
        st.sampled_from(["kmer", "word", "culled"]),
        st.integers(1, 8),
        st.sampled_from(N_MODES),
        st.booleans(),
        st.sampled_from([tokenizers._VALUE_BLOCK, 7, 1000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_ids_match_per_kmer_reference(self, bases, kind, k, n_mode, sentinels, block):
        vocab = oracle_vocab(kind, k)
        spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
        want = reference_ids(vocab, bases, n_mode, sentinels)
        for walk in _N_WALKS:
            with mock.patch.multiple(tokenizers, _VALUE_BLOCK=block, _N_WALK_WINDOWS=walk):
                ids = tokenize(DnaSequence(bases), spec)
            assert ids.dtype == np.int32 and ids.base is None
            assert ids.tolist() == want, walk

    def test_n_free_input_skips_the_flag_pass(self):
        """N-free input does no N work; one N per ~5 kb takes the walk and no _n_flags; 2% scattered N takes
        _n_flags, on both paths."""
        spec = TokenizerSpec(build_kmer_vocab(4), add_sentinels=True)
        rng = np.random.default_rng(3)
        sparse = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, 50_000)].copy()
        sparse[rng.integers(0, sparse.size, 10)] = ord("N")
        dense, _ = _two_percent_n(50_000)
        for correlate_max in (1 << 30, 0):  # the one-correlate path, then the block path
            with mock.patch.object(tokenizers, "_CORRELATE_MAX", correlate_max):
                for bases, walks, flags in [
                    ("ACGTTGCA" * 40, False, False),
                    (sparse.tobytes().decode(), True, False),
                    (sparse[:2000].tobytes().decode().replace("N", "A") + "N" + "ACGT" * 10, True, False),
                    (dense.bases, True, True),
                ]:
                    seq = DnaSequence(bases)
                    with mock.patch.object(tokenizers, "_n_run_windows", wraps=tokenizers._n_run_windows) as runs:
                        with mock.patch.object(tokenizers, "_n_flags", wraps=tokenizers._n_flags) as flagged:
                            ids = tokenize(seq, spec)
                    assert (runs.called, flagged.called) == (walks, flags), (len(bases), correlate_max)
                    assert ids.tolist() == identity_ids(spec.vocab, bases, 1, "as_unk", sentinels=True)

    # 4**k tokens are too many to build and cull past k = 8
    @pytest.mark.parametrize(
        "kind, k", [(kind, k) for kind in ("kmer", "word", "culled") for k in range(1, MAX_K + 1) if kind != "culled" or k <= 8]
    )
    def test_crafted_inputs_on_every_path(self, kind, k):
        """N at either end or next to the sentinel slots, N runs shorter and
        longer than k, within k - 1 bases of each other, across a patched
        block edge or longer than a block, and all-N input, at lengths
        below, at and above k and on both sides of each size crossover,
        through each path that a crossover picks, patched both ways: one
        correlate or blocks, one block or several, one span or threads,
        and the N walk as shipped, never giving up or giving up at the second run."""
        vocab = oracle_vocab(kind, k) if kind == "culled" else identity_vocab(kind, k)
        stride = k if kind == "word" else 1
        block = _CRAFTED_BLOCK  # windows per block when patched: inputs of block - 1 .. block + 1 windows below
        lengths = {0, 1, k - 1, k, k + 1, 2 * k, 3 * k + 1, 97}
        lengths |= {(block + d) * stride + (k - 1 if stride == 1 else 0) for d in (-1, 0, 1)}
        if stride == 1:
            lengths |= {tokenizers._CORRELATE_MAX, tokenizers._CORRELATE_MAX + 1}
        paths = [
            {"_CORRELATE_MAX": tokenizers._CORRELATE_MAX},  # as shipped
            {"_CORRELATE_MAX": 1 << 30},
            {"_CORRELATE_MAX": 0},
            {"_CORRELATE_MAX": 0, "_VALUE_BLOCK": block},
        ]
        for n, layout in itertools.product(sorted(lengths), _N_LAYOUTS):
            bases = _crafted_bases(n, k, layout, stride)
            for n_mode, sentinels in itertools.product(["as_unk", "drop"], [False, True]):
                spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
                if kind == "culled":
                    want = reference_ids(vocab, bases, n_mode, sentinels)
                else:
                    want = identity_ids(vocab, bases, stride, n_mode, sentinels)
                small = n < 100  # blocks of a few windows: a long input would take hundreds
                for patches, walk in itertools.product(paths if small else paths[:3], _N_WALKS):
                    with mock.patch.multiple(tokenizers, _N_WALK_WINDOWS=walk, **patches):
                        ids = tokenize(DnaSequence(bases), spec)
                    assert ids.dtype == np.int32 and ids.base is None
                    assert ids.tolist() == want, (n, layout, n_mode, sentinels, patches, walk)
                if kind != "word" and small:  # spans of one or more windows on three threads, each span in blocks
                    for walk in _N_WALKS:
                        with mock.patch.multiple(tokenizers, _MIN_CHUNK=1, _VALUE_BLOCK=block, _N_WALK_WINDOWS=walk):
                            ids = kmer_tokenize_parallel(DnaSequence(bases), spec, 3)
                        assert ids.tolist() == want, (n, layout, n_mode, sentinels, "threads", walk)


    def test_digits_come_from_the_ascii_bits(self):
        digits = tokenizers._digits(np.frombuffer(b"ACGTN", dtype=np.uint8))
        assert digits.dtype == np.uint8
        assert digits[:4].tolist() == [0, 1, 2, 3]
        assert digits[4] < 4  # an N window's value stays inside a culled vocabulary's value table

    @pytest.mark.parametrize("k", [2, 5, 6, 8])
    def test_n_at_a_block_edge_under_a_culled_table(self, k):
        """An N in the first or last base of a block's last window, of the next block's first, or two of them,
        at stride 1 and at word stride."""
        for kind, s in (("culled", 1), ("culled_word", k)):
            vocab = oracle_vocab(kind, k)
            assert vocab.kmer_value_table is not None

            def ends(edge):  # the first and last base of the window before ``edge`` and of the window at it
                return {(edge - 1) * s, edge * s, (edge - 1) * s + k - 1, edge * s + k - 1}

            cases = [(5, [at]) for edge in (5, 10) for at in ends(edge)]
            block = tokenizers._VALUE_BLOCK  # as shipped: one N at each of two edges
            cases += [(block, [(block - 1) * s, 2 * block * s + k - 1])]
            cases += [(block, [block * s, (2 * block - 1) * s + k - 1])]
            for block, ns in cases:
                bases = list(_crafted_bases((3 * block - 1) * s + k, k, "n_free"))  # three blocks of windows
                for at in ns:
                    bases[at] = "N"
                bases = "".join(bases)
                for n_mode in ("as_unk", "drop"):
                    want = reference_ids(vocab, bases, n_mode, sentinels=False)
                    for sentinels in (False, True):
                        spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
                        with mock.patch.multiple(tokenizers, _CORRELATE_MAX=0, _VALUE_BLOCK=block):
                            ids = tokenize(DnaSequence(bases), spec).tolist()
                        if sentinels:
                            assert ids[0] == vocab.special_id("CLS") and ids[-1] == vocab.special_id("SEP")
                            ids = ids[1:-1]
                        assert ids == want, (kind, block, ns, n_mode, sentinels)

    @given(
        st.integers(1, 12),
        st.booleans(),
        st.integers(1, 40),
        st.integers(0, 11),
        st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @example(k=6, word=False, m=1, tail=0, share=1.0, seed=0)
    @example(k=6, word=True, m=1, tail=0, share=1.0, seed=0)
    @example(k=1, word=True, m=7, tail=0, share=1.0, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_n_flags_match_per_window_reference(self, k, word, m, tail, share, seed):
        """_n_flags at stride 1 and at stride k against any() over each window, with bases past the last window."""
        stride = k if word else 1
        n = (m - 1) * stride + k + tail % stride  # a word tail shorter than k holds no window
        is_n = np.random.default_rng(seed).random(n) < share
        want = [bool(is_n[w * stride : w * stride + k].any()) for w in range(m)]
        assert tokenizers._n_flags(is_n, k, stride, m).tolist() == want

    @pytest.mark.parametrize("k", range(1, MAX_K + 1))
    def test_parallel_equals_serial_below_k(self, k):
        """An input shorter than k gives only the sentinels, on every path and from the threaded encoder."""
        vocab = identity_vocab("kmer", k)
        for n, layout in itertools.product(range(k), _N_LAYOUTS):
            bases = DnaSequence(_crafted_bases(n, k, layout))
            for n_mode, sentinels in itertools.product(["as_unk", "drop"], [False, True]):
                spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
                want = identity_ids(vocab, bases.bases, 1, n_mode, sentinels)
                assert want == ([vocab.special_id("CLS"), vocab.special_id("SEP")] if sentinels else [])
                for correlate_max in (tokenizers._CORRELATE_MAX, 0):
                    with mock.patch.multiple(tokenizers, _CORRELATE_MAX=correlate_max, _MIN_CHUNK=1):
                        serial = kmer_tokenize(bases, spec)
                        threaded = kmer_tokenize_parallel(bases, spec, 3)
                    assert serial.dtype == threaded.dtype == np.int32
                    assert serial.tolist() == threaded.tolist() == want, (n, layout, n_mode, sentinels, correlate_max)

    @pytest.mark.parametrize("k", [2, 3, 6, 12])
    def test_word_n_in_the_dropped_tail(self, k):
        vocab = identity_vocab("word", k)
        for whole, tail in itertools.product([0, 1, 4, 7], range(1, k)):
            bases = _crafted_bases(whole * k, k, "n_free") + "N" * tail
            for n_mode, sentinels, block in itertools.product(["as_unk", "drop"], [False, True], [3, 1 << 16]):
                spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
                with mock.patch.object(tokenizers, "_VALUE_BLOCK", block):
                    ids = tokenize(DnaSequence(bases), spec)
                assert ids.tolist() == identity_ids(vocab, bases, k, n_mode, sentinels)
                assert vocab.unk_id not in ids.tolist()

    @pytest.mark.parametrize("k", range(1, MAX_K + 1))
    def test_parallel_equals_serial(self, k):
        """Spans on two and three threads, each in blocks, equal the serial ids and the reference."""
        vocab = identity_vocab("kmer", k)
        for n, layout in itertools.product([k, 40, 97], _N_LAYOUTS):
            bases = _crafted_bases(n, k, layout)
            for n_mode, sentinels in itertools.product(["as_unk", "drop"], [False, True]):
                spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
                want = identity_ids(vocab, bases, 1, n_mode, sentinels)
                assert kmer_tokenize(DnaSequence(bases), spec).tolist() == want
                for threads, block in itertools.product([2, 3], [3, 1 << 16]):
                    with mock.patch.multiple(tokenizers, _MIN_CHUNK=7, _VALUE_BLOCK=block):
                        ids = kmer_tokenize_parallel(DnaSequence(bases), spec, threads)
                    assert ids.tolist() == want, (n, layout, n_mode, sentinels, threads, block)

def reference_value_lut(vocab):
    """Id of every k-mer by value, [CULL] (or -1) where the vocabulary lacks it."""
    fill = -1 if vocab.cull_id is None else vocab.cull_id
    kmers = ("".join(p) for p in itertools.product("ACGT", repeat=vocab.k))
    return [vocab._token_to_id.get(t, fill) for t in kmers]


def _vocab_from(tokens, k):
    tokens, specials = _with_specials(list(tokens))
    return Vocabulary(kind="kmer", tokens=tokens, specials=specials, k=k)


_LUT_CHUNKS = pytest.mark.parametrize("chunk", [1, 7, 64, core._LUT_CHUNK])


def _uncached(vocab):
    """A copy of ``vocab`` that holds no value table yet."""
    return Vocabulary(vocab.kind, vocab.tokens, vocab.specials, vocab.k)


class TestValueLut:
    @_LUT_CHUNKS
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_complete_vocabularies_are_the_identity(self, k, chunk):
        with mock.patch.object(core, "_LUT_CHUNK", chunk):
            assert _uncached(build_kmer_vocab(k)).kmer_value_table is None
            word = build_kmer_vocab(k, include_n_tokens=True, kind="word")
            assert _uncached(word).kmer_value_table is None

    @pytest.mark.parametrize(
        "vocab",
        [
            cull_vocab(build_kmer_vocab(3), CullSpec(frozenset({1, 2, 6})))[0],
            cull_vocab(build_kmer_vocab(6, include_n_tokens=True), CullSpec(frozenset(range(0, 4096, 11))))[0],
            # every k-mer, out of value order
            _vocab_from(sorted(build_kmer_vocab(3).tokens[:64], key=lambda t: t[::-1]), 3),
            # every k-mer after an extra pure token and a non-ASCII one
            _vocab_from(["AC", "é" * 3] + list(build_kmer_vocab(3).tokens[:64]), 3),
            # every k-mer but the last at its own value
            _vocab_from([*build_kmer_vocab(2).tokens[:15], "[CULL]"], 2),
        ],
        ids=["culled_k3", "culled_k6_n_tokens", "permuted", "extra_tokens", "last_kmer_culled"],
    )
    @_LUT_CHUNKS
    def test_table_matches_per_kmer_lookup(self, vocab, chunk):
        vocab = _uncached(vocab)
        with mock.patch.object(core, "_LUT_CHUNK", chunk):
            lut = vocab.kmer_value_table
        assert lut is not None and lut.dtype == np.int32
        assert lut.tolist() == reference_value_lut(vocab)

    def test_missing_kmer_without_cull_raises(self):
        vocab = _vocab_from(build_kmer_vocab(2).tokens[1:16], 2)
        with pytest.raises(DataError, match="no \\[CULL\\] token"):
            vocab.kmer_value_table
