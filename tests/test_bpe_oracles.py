"""BPE against naive references.

The training oracle recounts every non-overlapping pair at every step and
breaks ties the same way (highest count, then the concatenated string,
then the left string). The encoding oracle rescans the whole run for the
lowest-ranked present pair before every merge.
"""

import itertools
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnaprep import CullSpec, DataError, DnaSequence, bpe_encode, bpe_train, bpe_train_sizes, cull_vocab, remap_ids
from dnaprep.core import BPE, Vocabulary, _with_specials, bpe_vocab_from_merges
from dnaprep.core import CULL_FRACTION_MAX

ALPHABETS = ("ACGT", "AT", "ACGTN", "ATN", "AN")


def _sequences(alphabet):
    plain = st.text(alphabet=alphabet, max_size=80)
    homopolymer = st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, 9)), max_size=16).map(
        lambda runs: "".join(base * n for base, n in runs)
    )
    return st.lists(plain | homopolymer, min_size=1, max_size=3)


corpora = st.sampled_from(ALPHABETS).flatmap(_sequences)
POOL = ("A", "C", "G", "T", "AA", "AT", "TA", "TT", "AAT", "ATA", "ATT")
merge_lists = st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL)), max_size=12)


def naive_train(texts, target_size):
    runs = [list(run) for text in texts for run in text.split("N") if run]
    known = set("ACGT")
    merges = []
    while len(known) < target_size:
        counts = {}
        for run in runs:
            last_end = {}
            for i in range(len(run) - 1):
                pair = (run[i], run[i + 1])
                if last_end.get(pair, -1) > i:
                    continue
                counts[pair] = counts.get(pair, 0) + 1
                last_end[pair] = i + 2
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p[0] + p[1], p[0]))
        runs = [_apply(run, best) for run in runs]
        merges.append(best)
        known.add(best[0] + best[1])
    return bpe_vocab_from_merges(merges)


def _apply(toks, pair):
    left, right = pair
    out = []
    i = 0
    while i < len(toks):
        if i + 1 < len(toks) and toks[i] == left and toks[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(toks[i])
            i += 1
    return out


def encode_run(run, vocab, ranks):
    """Merge-rank encoding of one N-free run into token strings."""
    toks = list(run)
    while len(toks) > 1:
        best_rank = None
        for i in range(len(toks) - 1):
            r = ranks.get((toks[i], toks[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
        if best_rank is None:
            break
        toks = _apply(toks, vocab.merges[best_rank])
    return toks


def naive_encode(bases, vocab):
    ranks = {}
    for rank, pair in enumerate(vocab.merges):
        ranks.setdefault(pair, rank)
    ids = []
    for is_n, group in itertools.groupby(bases, key=lambda base: base == "N"):
        run = "".join(group)
        if is_n:
            ids.extend([vocab.unk_id] * len(run))
        else:
            ids.extend(vocab.id_of(tok) for tok in encode_run(run, vocab, ranks))
    return ids


def train(texts, target_size):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small corpora run out of pairs
        return bpe_train([DnaSequence(t) for t in texts], target_size)


@given(corpora, st.integers(4, 40))
@settings(max_examples=300, deadline=None)
def test_training_matches_naive_trainer(texts, target_size):
    assert train(texts, target_size).to_json_bytes() == naive_train(texts, target_size).to_json_bytes()


def test_training_matches_naive_trainer_on_homopolymers():
    texts = ["A" * 37, "AAAAAAATAAAAAAAA", "AANAAAAANAAAAAAAAAAA", "ATATATATA" * 3]
    for target_size in range(4, 16):
        assert train(texts, target_size).to_json_bytes() == naive_train(texts, target_size).to_json_bytes()


@given(corpora, st.lists(st.integers(4, 40), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_size_snapshots_equal_direct_training(texts, sizes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        snaps = bpe_train_sizes([DnaSequence(t) for t in texts], sizes)
    assert sorted(snaps) == sorted(set(sizes))
    for size in sizes:
        assert snaps[size].to_json_bytes() == train(texts, size).to_json_bytes()


@given(corpora, st.integers(4, 40), st.sampled_from(ALPHABETS).flatmap(_sequences))
@settings(max_examples=200, deadline=None)
def test_encoding_trained_vocabularies_matches_oracle(texts, target_size, others):
    vocab = train(texts, target_size)
    for bases in texts + others:
        assert bpe_encode(DnaSequence(bases), vocab).tolist() == naive_encode(bases, vocab)


@given(merge_lists, st.sampled_from(ALPHABETS).flatmap(_sequences))
@settings(max_examples=300, deadline=None)
def test_encoding_hand_made_merges_matches_oracle(merges, texts):
    vocab = bpe_vocab_from_merges(merges)
    for bases in texts:
        assert bpe_encode(DnaSequence(bases), vocab).tolist() == naive_encode(bases, vocab)


@pytest.mark.parametrize(
    "merges",
    [
        [("A", "T"), ("A", "AT"), ("AA", "T")],
        [("AA", "T"), ("A", "A"), ("A", "T"), ("A", "AT")],
        [("AT", "A"), ("A", "T"), ("A", "TA"), ("T", "A")],
    ],
)
def test_encoding_repeated_outputs_matches_oracle(merges):
    vocab = bpe_vocab_from_merges(merges)
    for bases in ("AAT", "AATAATAT", "AAAATTATAT", "ATATANAATAT", "AAAAAAAAT"):
        assert bpe_encode(DnaSequence(bases), vocab).tolist() == naive_encode(bases, vocab)


@given(corpora, st.integers(10, 60), st.sampled_from(ALPHABETS).flatmap(_sequences), st.data())
@settings(max_examples=200, deadline=None)
def test_encoding_culled_vocabularies_remaps_the_full_encoding(texts, target_size, others, data):
    """A culled vocabulary encodes as the full one, with each removed token read as [CULL]."""
    full = train(texts, target_size)
    cap = int(CULL_FRACTION_MAX * full.n_nonspecial)
    remove = data.draw(st.frozensets(st.integers(0, full.n_nonspecial - 1), min_size=min(1, cap), max_size=cap))
    culled, remap = cull_vocab(full, CullSpec(remove))
    for bases in texts + others:
        want = remap_ids(bpe_encode(DnaSequence(bases), full), remap)
        assert bpe_encode(DnaSequence(bases), culled).tolist() == want.tolist()


def test_an_emitted_token_missing_without_cull_is_named():
    """A merge output the vocabulary lacks raises only when a run ends holding it."""
    tokens, specials = _with_specials(["A", "C", "G", "T", "ATC"])
    vocab = Vocabulary(kind=BPE, tokens=tokens, specials=specials, merges=(("A", "T"), ("AT", "C")))
    assert bpe_encode(DnaSequence("GATCNATC"), vocab).tolist() == naive_encode("GATCNATC", vocab)
    with pytest.raises(DataError, match=re.escape("token 'AT' missing from BPE vocabulary")):
        bpe_encode(DnaSequence("ATCNATG"), vocab)


def test_encoding_long_runs_matches_oracle():
    """At the benchmark's shape, where a rank's bucket holds hundreds of positions."""
    rng = random.Random(0)
    bases = "".join(rng.choice("ACGT") for _ in range(2_000 + 4_000 + 8 * 512))
    vocab = train([bases[:2_000]], 256)
    assert len(vocab.merges) == 252
    runs = [bases[2_000:6_000]] + [bases[start : start + 512] for start in range(6_000, len(bases), 512)]
    for run in runs:
        assert bpe_encode(DnaSequence(run), vocab).tolist() == naive_encode(run, vocab)
