import csv
import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnaprep import (
    ConstraintError,
    CullSpec,
    DataError,
    DnaSequence,
    TokenizerSpec,
    bpe_train,
    bucket_tokens,
    build_kmer_vocab,
    compute_token_stats,
    cull_vocab,
    kmer_tokenize,
    read_fasta,
    remap_ids,
    tokenize,
)
from dnaprep import vocabstats
from dnaprep.core import CULL_FRACTION_MAX, CULL_TOKEN, SPECIAL_TOKENS, Vocabulary, _with_specials
from dnaprep.tokenizers import N_MODES
from dnaprep.vocabstats import write_stats_csv
from test_tokenizers import bpe_with_n_runs

V1 = build_kmer_vocab(1)
V3 = build_kmer_vocab(3)


def _trained_bpe(size, seed):
    rng = np.random.default_rng(seed)
    return bpe_train([DnaSequence("".join(rng.choice(list("ACGT"), size=500))) for _ in range(3)], size)


# k-mer, word and trained BPE vocabularies, with and without N-run tokens,
# and one whose specials are a reordered subset
CULL_VOCABS = (
    V3,
    build_kmer_vocab(4, include_n_tokens=True),
    build_kmer_vocab(2, include_n_tokens=True, kind="word"),
    build_kmer_vocab(5, kind="word"),
    _trained_bpe(60, 0),
    bpe_with_n_runs(_trained_bpe(120, 1)),
    Vocabulary("kmer", (*build_kmer_vocab(2).tokens[:16], "[UNK]", "[MASK]"), {"MASK": 17, "UNK": 16}, 2),
)


class TestTokenStats:
    def test_homogeneous_corpus(self):
        stats = compute_token_stats([DnaSequence("AAAA")], TokenizerSpec(V1))
        a = stats[V1.id_of("A")]
        assert a.frequency == 4
        assert a.rel_freq == 1.0
        assert a.context_entropy == 0.0
        assert all(s.frequency == 0 for s in stats if s.token_id != V1.id_of("A"))

    def test_deterministic_successors(self):
        stats = compute_token_stats([DnaSequence("ACAC")], TokenizerSpec(V1))
        a, c = stats[V1.id_of("A")], stats[V1.id_of("C")]
        assert a.frequency == 2 and c.frequency == 2
        assert a.context_entropy == 0.0 and c.context_entropy == 0.0

    def test_uniform_successors_one_bit(self):
        stats = compute_token_stats([DnaSequence("ACAG")], TokenizerSpec(V1))
        assert abs(stats[V1.id_of("A")].context_entropy - 1.0) < 1e-12

    def test_no_cross_sequence_pairs(self):
        # "AC" then "CA": A's successors = {C} only; the C->C boundary
        # pair across records must not be counted.
        one = compute_token_stats(
            [DnaSequence("AC"), DnaSequence("CA")], TokenizerSpec(V1)
        )
        assert one[V1.id_of("C")].context_entropy == 0.0
        joined = compute_token_stats([DnaSequence("ACCA")], TokenizerSpec(V1))
        assert joined[V1.id_of("C")].context_entropy == 1.0

    def test_total_conservation(self):
        corpus = [DnaSequence("ACGTTGCA"), DnaSequence("GGAT")]
        spec = TokenizerSpec(V3)
        stats = compute_token_stats(corpus, spec)
        emitted = sum(kmer_tokenize(s, spec).size for s in corpus)
        assert sum(s.frequency for s in stats) == emitted

    def test_rel_freq_sums_to_one(self):
        stats = compute_token_stats([DnaSequence("ACGTTGCAACGT")], TokenizerSpec(V3))
        total = sum(s.rel_freq for s in stats[: V3.n_nonspecial])
        assert abs(total - 1.0) < 1e-9

    def test_unknown_accuracy_ids_rejected(self):
        with pytest.raises(DataError):
            compute_token_stats(
                [DnaSequence("ACGT")], TokenizerSpec(V3), accuracy={9999: 0.5}
            )

    @pytest.mark.parametrize("bad_id", [9999, len(V3), -1])
    def test_unknown_accuracy_ids_rejected_before_the_corpus_is_read(self, bad_id):
        def corpus():
            raise AssertionError("the corpus was read")
            yield

        with pytest.raises(DataError, match=f"unknown token ids: \\[{bad_id}\\]"):
            compute_token_stats(corpus(), TokenizerSpec(V3), accuracy={0: 0.5, bad_id: 0.5})

    def test_successor_entropy_k8_matches_python_reference(self):
        # 65541 ids, so a successor key left * size + right needs 33 bits
        vocab = build_kmer_vocab(8)
        spec = TokenizerSpec(vocab, add_sentinels=True)
        corpus = [DnaSequence("T" * 9 + "A" * 8), DnaSequence("ACGTTGCAACGTACGTTGCA")]
        successors: dict[int, Counter] = {}
        for seq in corpus:
            ids = [int(i) for i in kmer_tokenize(seq, spec)]
            for left, right in zip(ids, ids[1:]):
                successors.setdefault(left, Counter())[right] += 1
        expected = [0.0] * len(vocab)
        for left, counter in successors.items():
            total = sum(counter.values())
            expected[left] = -sum(c / total * math.log2(c / total) for c in counter.values())
        got = [s.context_entropy for s in compute_token_stats(corpus, spec)]
        assert got[vocab.id_of("T" * 8)] == 1.0
        assert np.allclose(got, expected, rtol=0, atol=1e-12)


def loop_token_stats(corpus, spec):
    """Frequencies and successor entropies as compute_token_stats found them
    before it summed rows with bincount: one bincount per record, one masked
    row sum per left token."""
    size = len(spec.vocab)
    freq = np.zeros(size, dtype=np.int64)
    pair_keys = []
    for seq in corpus:
        ids = tokenize(seq, spec)
        freq += np.bincount(ids, minlength=size)
        if ids.size >= 2:
            pair_keys.append(ids[:-1].astype(np.uint64) * size + ids[1:].astype(np.uint64))
    entropy = np.zeros(size, dtype=np.float64)
    if pair_keys:
        keys, counts = np.unique(np.concatenate(pair_keys), return_counts=True)
        lefts = keys // size
        for left in np.unique(lefts):
            sel = counts[lefts == left].astype(np.float64)
            probs = sel / sel.sum()
            entropy[left] = float(-(probs * np.log2(probs)).sum())
    return freq, entropy


def assert_matches_loop(corpus, spec):
    stats = compute_token_stats(corpus, spec)
    freq, entropy = loop_token_stats(corpus, spec)
    got = np.array([s.context_entropy for s in stats])
    assert [s.frequency for s in stats] == freq.tolist()
    # exact, not approximate: the CSV prints 10 significant digits of these
    assert np.array_equal(got, entropy)
    assert not np.signbit(got).any()


_CORPUS = st.lists(st.text(alphabet="ACGTN", max_size=120), max_size=6)
_BPE = bpe_train([DnaSequence("ACGTTGCATTACGGATACGTNNACGTAAACCCGGGTTT" * 8)], 24)


class TestTokenStatsAgainstLoop:
    @given(_CORPUS, st.integers(1, 4), st.sampled_from(["kmer", "word"]), st.sampled_from(N_MODES))
    @settings(max_examples=150, deadline=None)
    def test_fixed_width_vocabularies(self, texts, k, kind, n_mode):
        vocab = build_kmer_vocab(k, include_n_tokens=n_mode == "seg_n", kind=kind)
        spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=k % 2 == 0)
        assert_matches_loop([DnaSequence(t) for t in texts], spec)

    @given(_CORPUS)
    @settings(max_examples=40, deadline=None)
    def test_bpe_vocabulary(self, texts):
        assert_matches_loop([DnaSequence(t) for t in texts], TokenizerSpec(_BPE))

    @pytest.mark.parametrize("k,kind", [(2, "word"), (3, "word"), (6, "kmer")])
    def test_rows_with_many_successors(self, k, kind):
        # word vocabularies and the UNK row give rows of 8 to 64 successors,
        # the ones .sum() adds pairwise
        rng = np.random.default_rng(k)
        texts = ["".join(rng.choice(list("ACGTN"), p=[0.24] * 4 + [0.04], size=3000)) for _ in range(3)]
        spec = TokenizerSpec(build_kmer_vocab(k, kind=kind))
        corpus = [DnaSequence(t) for t in texts]
        assert_matches_loop(corpus, spec)
        pairs = set()
        for seq in corpus:
            ids = tokenize(seq, spec).tolist()
            pairs.update(zip(ids, ids[1:]))
        assert max(Counter(left for left, _ in pairs).values()) >= 8

    @pytest.mark.parametrize("counts", [[4, 5, 7, 8, 1, 2, 7, 8], [6, 7, 1, 7, 4, 5, 6, 3, 8]])
    def test_row_whose_sum_order_matters(self, counts):
        # successor counts whose entropy terms sum to different floats one
        # by one and pairwise
        vocab = build_kmer_vocab(2, kind="word")
        corpus = [DnaSequence("AA" + vocab.tokens[right]) for right, c in enumerate(counts) for _ in range(c)]
        assert_matches_loop(corpus, TokenizerSpec(vocab))


_BPE_N = bpe_with_n_runs(_BPE)
# empty records and records shorter than k next to longer ones
_MIXED_CORPUS = st.lists(st.text(alphabet="ACGTN", max_size=4) | st.text(alphabet="ACGTN", max_size=120), max_size=8)


class TestPairBuffer:
    """Successor pairs are counted a buffer at a time and merged into one
    table; any buffer size gives the whole-corpus result to the last bit."""

    @given(
        _MIXED_CORPUS,
        st.sampled_from([1, 2, 3, 7, 1 << 20]),
        st.integers(1, 4),
        st.sampled_from(["kmer", "word", "bpe"]),
        st.sampled_from(N_MODES),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_buffer_matches_whole_corpus(self, texts, buffer, k, kind, n_mode, sentinels):
        if kind == "bpe":
            vocab = _BPE_N if n_mode == "seg_n" else _BPE
        else:
            vocab = build_kmer_vocab(k, include_n_tokens=n_mode == "seg_n", kind=kind)
        spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=sentinels)
        with mock.patch.object(vocabstats, "_PAIR_BUFFER", buffer):
            assert_matches_loop([DnaSequence(t) for t in texts], spec)

    @pytest.mark.parametrize("n_mode", N_MODES)
    def test_worker_counts_match_the_loop(self, n_mode):
        # a buffer of 100 keys goes to the worker after most records, and
        # after a few short ones together; N runs are of every length
        rng = np.random.default_rng(len(n_mode))
        sizes = (700, 0, 3, 450, 40, 190, 30, 600, 260, 1200)
        texts = ["".join(rng.choice(list("ACGTN"), p=[0.22] * 4 + [0.12], size=n)) for n in sizes]
        texts[3] = "N" * 300 + texts[3] + "N" * 50
        vocab = build_kmer_vocab(3, include_n_tokens=n_mode == "seg_n")
        spec = TokenizerSpec(vocab, n_mode=n_mode, add_sentinels=True)
        with _workers_seen() as workers, mock.patch.object(vocabstats, "_PAIR_BUFFER", 100):
            assert_matches_loop([DnaSequence(t) for t in texts], spec)
        assert len(workers) >= 5
        assert threading.current_thread() not in workers

    def test_a_corpus_below_one_buffer_starts_no_thread(self):
        before = threading.active_count()
        spec = TokenizerSpec(V3)
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("a thread was started")):
            assert_matches_loop([DnaSequence("ACGTTGCA" * 100), DnaSequence("ACGNNTTA" * 50)], spec)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing_call", [1, 2, 4])
    def test_a_worker_error_is_raised_in_the_caller(self, failing_call):
        # a buffer of one record's keys: each of the four records goes to the
        # worker, and the caller joins the last one after the loop
        merge = vocabstats._merge_pairs
        calls = []

        def failing(*args):
            calls.append(threading.current_thread())
            if len(calls) == failing_call:
                raise RuntimeError("merge failed")
            return merge(*args)

        before = threading.active_count()
        corpus = [DnaSequence("ACGT" * 250) for _ in range(4)]
        with mock.patch.object(vocabstats, "_merge_pairs", failing), mock.patch.object(vocabstats, "_PAIR_BUFFER", 997):
            with pytest.raises(RuntimeError, match="merge failed"):
                compute_token_stats(corpus, TokenizerSpec(V3))
        assert len(calls) == failing_call and threading.current_thread() not in calls
        assert threading.active_count() == before

    def test_a_bad_record_after_a_flush_waits_for_the_worker(self, tmp_path):
        # the worker is still merging the first record when the third one
        # fails to read; the call returns only once the worker is done
        merge = vocabstats._merge_pairs
        done = []

        def slow(*args):
            time.sleep(0.2)
            done.append(merge(*args))
            return done[-1]

        path = tmp_path / "bad.fa"
        path.write_text(">a\n" + "ACGT" * 400 + "\n>b\nACGTTGCA\n>c\nACGTXACGT\n")
        before = threading.active_count()
        with mock.patch.object(vocabstats, "_merge_pairs", slow), mock.patch.object(vocabstats, "_PAIR_BUFFER", 1000):
            with pytest.raises(DataError, match="invalid symbol"):
                compute_token_stats(read_fasta(path), TokenizerSpec(V3))
        assert len(done) == 1
        assert threading.active_count() == before

    def test_an_interrupt_during_a_merge_waits_for_the_worker(self):
        # the corpus raises KeyboardInterrupt while the worker merges the
        # first record; it propagates only once the worker is done
        merge = vocabstats._merge_pairs
        done = []

        def slow(*args):
            time.sleep(0.2)
            done.append(merge(*args))
            return done[-1]

        def corpus():
            yield DnaSequence("ACGT" * 400)
            raise KeyboardInterrupt

        before = threading.active_count()
        with mock.patch.object(vocabstats, "_merge_pairs", slow), mock.patch.object(vocabstats, "_PAIR_BUFFER", 1000):
            with pytest.raises(KeyboardInterrupt):
                compute_token_stats(corpus(), TokenizerSpec(V3))
        assert len(done) == 1
        assert threading.active_count() == before

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
    def test_peak_memory_does_not_grow_with_the_corpus(self):
        # Each run is a fresh process that reads its own VmHWM; eight 1 Mbp
        # records must peak where two do. Keeping every record's successor
        # keys until the end costs about 13 MiB more per record.
        peaks = {n: _peak_mib_of_token_stats(n) for n in (2, 8)}
        assert peaks[8] - peaks[2] < 4, peaks


@contextmanager
def _workers_seen():
    """The threads other than the caller's that run ``_merge_pairs`` while the block runs."""
    seen = []
    caller = threading.current_thread()
    merge = vocabstats._merge_pairs

    def recording(*args):
        if threading.current_thread() is not caller:
            seen.append(threading.current_thread())
        return merge(*args)

    with mock.patch.object(vocabstats, "_merge_pairs", recording):
        yield seen


_PEAK_SCRIPT = """
import sys
import numpy as np
from dnaprep import DnaSequence, TokenizerSpec, build_kmer_vocab, compute_token_stats

def records(n):
    rng = np.random.default_rng(0)
    for _ in range(n):
        codes = np.frombuffer(b"ACGT", np.uint8)[rng.integers(0, 4, 1_000_000, dtype=np.uint8)]
        codes[::97] = ord("N")
        yield DnaSequence(codes.tobytes().decode("ascii"))

compute_token_stats(records(int(sys.argv[1])), TokenizerSpec(build_kmer_vocab(6), add_sentinels=True))
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def _peak_mib_of_token_stats(records: int) -> float:
    src = Path(__file__).resolve().parent.parent / "src"
    # A fixed mmap threshold turns off glibc's adaptive one, which after the
    # first large free serves arrays from the heap and keeps some freed
    # blocks resident; VmHWM then follows the arrays the code holds. With
    # the adaptive threshold the two peaks here differ by about 3 MiB.
    env = dict(os.environ, PYTHONPATH=str(src), MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, str(records)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


# k -> (vocabulary size, the key type of its successor keys); at k = 8
# the 65,541 tokens need 33 bits for the largest key
_KEY_VOCABS = {
    k: (len(build_kmer_vocab(k)), key_type)
    for k, key_type in ((1, np.uint8), (2, np.uint16), (3, np.uint16), (6, np.uint32), (8, np.uint64))
}
_KEY_TYPES = [np.uint8, np.uint16, np.uint32, np.uint64]


class TestSuccessorKeys:
    """The two-pass key build equals left * size + right in int64 arithmetic."""

    @staticmethod
    def assert_keys(ids, k):
        size, key_type = _KEY_VOCABS[k]
        assert np.min_scalar_type(size * size) == key_type
        ids = np.asarray(ids, dtype=np.int32)  # the tokenizer's id type
        keys = vocabstats._successor_keys(ids, size, np.dtype(key_type))
        wide = ids.astype(np.int64)
        assert keys.dtype == key_type
        assert np.array_equal(keys.astype(np.int64), wide[:-1] * size + wide[1:])

    @pytest.mark.parametrize("k", sorted(_KEY_VOCABS))
    def test_extreme_ids(self, k):
        top = _KEY_VOCABS[k][0] - 1
        self.assert_keys([top, top, 0, top, 0, 0, 1, top - 1], k)

    @given(st.sampled_from(sorted(_KEY_VOCABS)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_ids(self, k, data):
        top = _KEY_VOCABS[k][0] - 1
        ids = data.draw(st.lists(st.integers(0, top) | st.sampled_from([0, top]), min_size=2, max_size=200))
        self.assert_keys(ids, k)


    @pytest.mark.parametrize("size", [46_341, 65_535])
    def test_keys_past_int32_keep_their_bits(self, size):
        """A BPE-sized vocabulary whose uint32 keys pass 2**31: the int32 pass wraps, the view reads it back."""
        key_type = np.min_scalar_type(size * size)
        assert key_type == np.uint32 and size * size - 1 >= 2**31  # the largest key
        ids = np.array([size - 1, size - 1, 0, size - 1, 1, size - 2, 0], dtype=np.int32)
        keys = vocabstats._successor_keys(ids, size, key_type)
        wide = ids.astype(np.int64)
        assert keys.dtype == np.uint32
        assert np.array_equal(keys.astype(np.int64), wide[:-1] * size + wide[1:])


class TestRunCounts:
    """Counting the runs of a sorted buffer gives np.unique's distinct keys and counts."""

    @staticmethod
    def assert_run_counts(values, key_type):
        keys = np.sort(np.asarray(values, dtype=key_type))
        got_keys, got_counts = vocabstats._run_counts(keys, np.empty(keys.size + 1, dtype=bool))
        want_keys, want_counts = np.unique(keys, return_counts=True)
        assert got_keys.dtype == key_type
        assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got_counts, want_counts)
        assert got_counts.dtype == np.int64

    @pytest.mark.parametrize("key_type", _KEY_TYPES)
    def test_empty_single_and_all_equal_buffers(self, key_type):
        top = np.iinfo(key_type).max
        for values in ([], [0], [top], [5] * 1000, [top] * 3, [0, top]):
            self.assert_run_counts(values, key_type)

    @given(st.sampled_from(_KEY_TYPES), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_buffers(self, key_type, data):
        top = int(np.iinfo(key_type).max)
        # few distinct values give long runs, the full range gives short ones
        values = st.integers(0, 3) | st.integers(0, top) | st.sampled_from([0, top])
        self.assert_run_counts(data.draw(st.lists(values, max_size=300)), key_type)

    def test_merge_sorts_its_own_buffer_in_place(self):
        # one buffered array is the record's own keys: sorted where it lies
        pairs = np.array([9, 3, 9, 1, 3, 9], dtype=np.uint32)
        batch = [pairs, np.empty(pairs.size + 1, dtype=bool)]
        keys, counts = vocabstats._merge_pairs(np.array([3, 4], np.uint32), np.array([2, 5]), batch)
        assert keys.tolist() == [1, 3, 4, 9] and counts.tolist() == [1, 4, 5, 3]
        assert pairs.tolist() == [1, 3, 3, 9, 9, 9] and batch == []


class TestBuckets:
    def make_stats(self, freqs, accs):
        from dnaprep.vocabstats import TokenStats

        return [
            TokenStats(i, f"T{i}", f, f / max(sum(freqs), 1), 0.0, acc)
            for i, (f, acc) in enumerate(zip(freqs, accs))
        ]

    def test_spaced_values_fill_all_six(self):
        stats = self.make_stats([1, 2, 10, 20, 100, 200], [0.9, 0.1, 0.8, 0.2, 0.7, 0.3])
        got = bucket_tokens(stats)
        assert sorted(got.values()) == sorted(
            [
                ("low", "high"),
                ("low", "low"),
                ("mid", "high"),
                ("mid", "low"),
                ("high", "high"),
                ("high", "low"),
            ]
        )

    def test_all_equal_frequencies_one_band(self):
        stats = self.make_stats([5, 5, 5, 5], [0.1, 0.2, 0.3, 0.4])
        got = bucket_tokens(stats)
        assert {band for band, _ in got.values()} == {"low"}

    def test_explicit_edges(self):
        stats = self.make_stats([1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4])
        got = bucket_tokens(stats, freq_edges=(0.15, 0.25), acc_edge=0.25)
        assert got[0] == ("low", "low")
        assert got[3] == ("high", "high")

    def test_partition(self):
        stats = self.make_stats(list(range(1, 12)), [i / 11 for i in range(11)])
        got = bucket_tokens(stats)
        assert len(got) == 11

    def test_missing_accuracy_rejected(self):
        stats = self.make_stats([1, 2], [0.5, None])
        with pytest.raises(DataError):
            bucket_tokens(stats)


class TestCull:
    def test_empty_removal_appends_cull(self):
        culled, remap = cull_vocab(V3, CullSpec(frozenset()))
        assert culled.n_nonspecial == 65
        assert culled.tokens[64] == CULL_TOKEN
        assert all(remap[i] == i for i in range(64))

    def test_arithmetic_and_encode_trace(self):
        remove = frozenset(V3.id_of(t) for t in ["ATC", "AAA", "CCC", "GGG", "TTT", "ACG"])
        culled, remap = cull_vocab(V3, CullSpec(remove))
        assert len(culled) == len(V3) - 6 + 1
        spec = TokenizerSpec(culled)
        ids = kmer_tokenize(DnaSequence("ATCG"), spec)
        assert culled.tokens[ids[0]] == CULL_TOKEN  # ATC was removed
        assert culled.tokens[ids[1]] == "TCG"

    def test_ten_percent_bound(self):
        ok = CullSpec(frozenset(range(6)))
        cull_vocab(V3, ok)  # 6/64 = 9.4%
        with pytest.raises(ConstraintError):
            cull_vocab(V3, CullSpec(frozenset(range(7))))  # 10.9%

    def test_special_removal_rejected(self):
        with pytest.raises(ValueError):
            cull_vocab(V3, CullSpec(frozenset({V3.special_id("CLS")})))

    @pytest.mark.parametrize("bad", [999, len(V3), -3])
    def test_ids_outside_the_vocabulary_are_out_of_range_not_special(self, bad):
        with pytest.raises(ValueError, match=f"cull ids out of range: \\[{bad}\\]"):
            cull_vocab(V3, CullSpec(frozenset({bad})))

    def test_double_cull_rejected(self):
        culled, _ = cull_vocab(V3, CullSpec(frozenset({1})))
        with pytest.raises(DataError):
            cull_vocab(culled, CullSpec(frozenset({2})))

    def test_remap_covers_specials(self):
        culled, remap = cull_vocab(V3, CullSpec(frozenset({0})))
        assert remap[V3.special_id("MASK")] == culled.special_id("MASK")

    @given(st.text(alphabet="ACGT", min_size=3, max_size=100), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_culled_encoding_differs_only_at_removed(self, bases, seed):
        rng = np.random.default_rng(seed)
        remove = frozenset(int(i) for i in rng.choice(64, size=6, replace=False))
        culled, remap = cull_vocab(V3, CullSpec(remove))
        original = kmer_tokenize(DnaSequence(bases), TokenizerSpec(V3))
        under_culled = kmer_tokenize(DnaSequence(bases), TokenizerSpec(culled))
        assert original.size == under_culled.size
        for old, new in zip(original.tolist(), under_culled.tolist()):
            if old in remove:
                assert new == culled.cull_id
            else:
                assert culled.tokens[new] == V3.tokens[old]
        # remap of the original ids gives the same stream
        assert np.array_equal(remap_ids(original, remap), under_culled)

    @pytest.mark.parametrize("bad", [-1, len(V3), 10**6])
    def test_remap_rejects_ids_outside_the_vocabulary(self, bad):
        _, remap = cull_vocab(V3, CullSpec(frozenset({0})))
        with pytest.raises(DataError, match=f"id {bad} is not in the vocabulary of {len(V3)} ids"):
            remap_ids([0, bad], remap)

    def test_empty_remap_names_the_first_uncovered_id(self):
        with pytest.raises(DataError, match="id 1 is not in the vocabulary of 0 ids"):
            remap_ids([1, 2], {})

    def test_empty_remap_of_no_ids_is_an_empty_array(self):
        out = remap_ids([], {})
        assert out.dtype == np.int64 and out.shape == (0,)

    @pytest.mark.parametrize(
        "bad", [1.5, 1.0, "7", True, np.True_], ids=["float", "whole_float", "str", "bool", "np_bool"]
    )
    def test_cull_spec_takes_only_integer_ids(self, bad):
        with pytest.raises(ValueError, match="cull ids must be integers"):
            CullSpec(frozenset({bad}))

    def test_cull_spec_accepts_numpy_integers(self):
        ids = CullSpec(frozenset({np.int64(1), np.uint8(2)})).remove_ids
        assert ids == {1, 2} and {type(i) for i in ids} == {int}

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_cull_matches_a_rebuild_from_token_strings(self, data):
        vocab = data.draw(st.sampled_from(CULL_VOCABS))
        n = vocab.n_nonspecial
        remove = data.draw(st.frozensets(st.integers(0, n - 1), max_size=int(CULL_FRACTION_MAX * n)))
        culled, remap = cull_vocab(vocab, CullSpec(remove))
        gone = {vocab.tokens[i] for i in remove}
        body = [t for t in vocab.tokens if t not in gone and t not in SPECIAL_TOKENS.values()]
        tail = [SPECIAL_TOKENS[name] for name in vocab.specials]  # in the order the specials are listed
        assert list(culled.tokens) == body + [CULL_TOKEN] + tail
        assert culled.cull_id == len(body) == culled.n_nonspecial - 1
        assert dict(culled.specials) == {name: culled.tokens.index(SPECIAL_TOKENS[name]) for name in vocab.specials}
        assert (culled.kind, culled.k, culled.merges) == (vocab.kind, vocab.k, vocab.merges)
        assert sorted(remap) == list(range(len(vocab)))
        for old, token in enumerate(vocab.tokens):
            want = CULL_TOKEN if token in gone else token
            assert culled.tokens[remap[old]] == want
        ids = data.draw(st.lists(st.integers(0, len(vocab) - 1), max_size=50))
        want = [culled.tokens.index(CULL_TOKEN if vocab.tokens[i] in gone else vocab.tokens[i]) for i in ids]
        assert remap_ids(ids, remap).tolist() == want

    def test_rc_label_falls_back_to_cull(self):
        # remove GAT; rc of ATC then resolves to [CULL]
        culled, _ = cull_vocab(V3, CullSpec(frozenset({V3.id_of("GAT")})))
        assert culled.rc_label(culled.id_of("ATC")) == culled.cull_id


class TestStatsCsv:
    def test_fixed_header_and_roundtrip(self, tmp_path):
        stats = compute_token_stats([DnaSequence("ACGTACGT")], TokenizerSpec(V3))
        path = tmp_path / "stats.csv"
        write_stats_csv(path, stats)
        lines = path.read_text().splitlines()
        assert lines[0] == "token_id,token,frequency,rel_freq,context_entropy,accuracy,freq_band,acc_band"
        assert len(lines) == len(V3) + 1

    def test_bytes_equal_csv_writer_for_any_token(self, tmp_path):
        """Tokens that csv quotes, and one it does not, against a table written row by row by csv.writer."""
        odd = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", '"', ",", "\r\n", " spaced ", "é"]
        tokens, specials = _with_specials(["A", "C", "G", "T", *odd])
        vocab = Vocabulary("kmer", tokens, specials, 1)
        accuracy = {0: 0.5, 5: 1 / 3, 7: 0.0}
        stats = compute_token_stats([DnaSequence("ACGTTGCAN")], TokenizerSpec(vocab), accuracy)
        buckets = {0: ("low", "high"), 5: ("mid", "low"), 7: ("high", "high")}
        for table in (None, buckets):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_stats_csv(got, stats, table)
            with open(want, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(
                    ["token_id", "token", "frequency", "rel_freq", "context_entropy", "accuracy", "freq_band", "acc_band"]
                )
                for s in stats:
                    acc = "" if s.accuracy is None else f"{s.accuracy:.10g}"
                    fb, ab = (table or {}).get(s.token_id, ("", ""))
                    writer.writerow(
                        [s.token_id, s.token, s.frequency, f"{s.rel_freq:.10g}", f"{s.context_entropy:.10g}", acc, fb, ab]
                    )
            assert got.read_bytes() == want.read_bytes()
