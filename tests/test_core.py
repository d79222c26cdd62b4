import dataclasses
import importlib
import json
import pickle
import re
from copy import deepcopy
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dnaprep
from dnaprep import (
    DataError,
    ConfigError,
    CullSpec,
    DnaSequence,
    build_kmer_vocab,
    cull_vocab,
    reverse_complement,
)
from dnaprep.core import CULL_TOKEN, SPECIAL_TOKENS, Vocabulary, bpe_vocab_from_merges

dna = st.text(alphabet="ACGTN", max_size=200)


class TestDnaSequence:
    def test_uppercases_input(self):
        assert DnaSequence("acgTn").bases == "ACGTN"

    def test_rejects_bad_byte_with_offset(self):
        with pytest.raises(DataError, match=r"b'X' at offset 2"):
            DnaSequence("ACXGT")

    @given(st.text(alphabet=st.sampled_from("ACGTNacgtn") | st.characters(max_codepoint=127), max_size=60))
    @example("AC\x00GT")
    def test_matches_a_per_character_check(self, text):
        """Valid iff every character is one of ACGTN in either case; otherwise the first other one is named."""
        bad = next((i for i, c in enumerate(text) if c not in "ACGTNacgtn"), None)
        if bad is None:
            assert DnaSequence(text).bases == text.upper()
        else:
            symbol = bytes([ord(text[bad].upper())])
            with pytest.raises(DataError, match=re.escape(f"invalid symbol {symbol!r} at offset {bad}")):
                DnaSequence(text)

    def test_rejects_non_ascii(self):
        with pytest.raises(DataError):
            DnaSequence("ACéGT")

    def test_empty_is_legal(self):
        assert len(DnaSequence("")) == 0


class TestReverseComplement:
    def test_atcg(self):
        assert reverse_complement(DnaSequence("ATCG")).bases == "CGAT"

    def test_empty(self):
        assert reverse_complement(DnaSequence("")).bases == ""

    def test_n_maps_to_n(self):
        assert reverse_complement(DnaSequence("ANT")).bases == "ANT"

    @given(dna)
    def test_involution(self, bases):
        seq = DnaSequence(bases)
        assert reverse_complement(reverse_complement(seq)).bases == seq.bases

    def test_gattaca(self):
        seq = DnaSequence("GATTACA")
        assert reverse_complement(reverse_complement(seq)).bases == "GATTACA"


class TestKmerVocab:
    @pytest.mark.parametrize("k,count", [(1, 4), (3, 64), (6, 4096)])
    def test_nonspecial_counts(self, k, count):
        assert build_kmer_vocab(k).n_nonspecial == count

    def test_lexicographic_order(self):
        vocab = build_kmer_vocab(2)
        assert vocab.tokens[:4] == ("AA", "AC", "AG", "AT")
        assert vocab.tokens[15] == "TT"

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            build_kmer_vocab(0)
        with pytest.raises(ConfigError):
            build_kmer_vocab(13)

    def test_n_tokens_longest_first(self):
        vocab = build_kmer_vocab(3, include_n_tokens=True)
        assert vocab.n_run_cover == tuple((len(t), vocab.id_of(t)) for t in ("NNN", "NN", "N"))
        assert vocab.n_nonspecial == 64 + 3

    def test_specials_occupy_tail(self):
        vocab = build_kmer_vocab(2)
        assert sorted(vocab.specials.values()) == list(range(16, 21))
        for name, sid in vocab.specials.items():
            assert vocab.tokens[sid] == SPECIAL_TOKENS[name]


class TestRcLabel:
    def test_single_nucleotide(self):
        vocab = build_kmer_vocab(1)
        assert vocab.rc_label(vocab.id_of("A")) == vocab.id_of("T")

    def test_k3(self):
        vocab = build_kmer_vocab(3)
        assert vocab.tokens[vocab.rc_label(vocab.id_of("ATC"))] == "GAT"

    def test_involution_over_all_ids(self):
        vocab = build_kmer_vocab(3)
        ids = np.arange(vocab.n_nonspecial)
        mapped = np.array([vocab.rc_label(int(i)) for i in ids])
        assert sorted(mapped) == list(ids)  # permutation
        assert all(vocab.rc_label(int(m)) == i for i, m in zip(ids, mapped))

    def test_special_rejected(self):
        vocab = build_kmer_vocab(2)
        with pytest.raises(ValueError):
            vocab.rc_label(vocab.special_id("CLS"))

    def test_bpe_labels_parallel_space(self):
        vocab = bpe_vocab_from_merges([("A", "T"), ("AT", "C")])
        assert vocab.rc_label(vocab.id_of("ATC")) == vocab.id_of("ATC")

    def test_fixed_points_are_rc_palindromes(self):
        vocab = build_kmer_vocab(2)
        from dnaprep.core import rc_string

        for i in range(vocab.n_nonspecial):
            tok = vocab.tokens[i]
            assert (vocab.rc_label(i) == i) == (rc_string(tok) == tok)


@pytest.mark.parametrize(
    "table, vocab",
    [
        ("kmer_value_table", build_kmer_vocab(3)),
        ("kmer_value_table", cull_vocab(build_kmer_vocab(3), CullSpec(frozenset({1, 2, 6})))[0]),
        ("rc_labels", build_kmer_vocab(3)),
        ("merge_table", bpe_vocab_from_merges([("A", "T"), ("C", "G"), ("A", "T")])),
    ],
    ids=["identity_value_table", "culled_value_table", "rc_labels", "merge_table"],
)
def test_tables_are_built_once_and_leave_equality_alone(table, vocab):
    """A table is built on its first read and kept; it takes no part in equality."""
    fresh = Vocabulary(vocab.kind, vocab.tokens, vocab.specials, vocab.k, vocab.merges)
    twin = Vocabulary(vocab.kind, vocab.tokens, vocab.specials, vocab.k, vocab.merges)
    prop = vars(Vocabulary)[table]
    with mock.patch.object(prop, "func", wraps=prop.func) as build:
        first = getattr(fresh, table)
        assert getattr(fresh, table) is first
    assert build.call_count == 1
    assert table in vars(fresh) and table not in vars(twin)
    assert fresh == twin and twin == fresh


class TestFrozen:
    def test_assigning_tokens_after_reading_the_cover_raises(self):
        """Once frozen, no assignment can leave a cached table describing other tokens."""
        vocab = build_kmer_vocab(2, include_n_tokens=True)
        cover = vocab.n_run_cover
        with pytest.raises(dataclasses.FrozenInstanceError):
            vocab.tokens = vocab.tokens[:16] + vocab.tokens[18:]
        assert len(vocab.tokens) == 23 and vocab.special_id("PAD") == 21
        assert vocab.n_run_cover is cover
        assert cover == ((2, 16), (1, 17))

    @pytest.mark.parametrize("field", ["kind", "tokens", "specials", "k", "merges"])
    def test_fields_cannot_be_assigned(self, field):
        vocab = build_kmer_vocab(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(vocab, field, getattr(vocab, field))

    def test_specials_are_read_only_and_serialize_unchanged(self):
        specials = {name: 16 + i for i, name in enumerate(SPECIAL_TOKENS)}
        tokens = build_kmer_vocab(2).tokens
        vocab = Vocabulary(kind="kmer", tokens=tokens, specials=specials, k=2)
        specials["UNK"] = 0  # the vocabulary keeps its own copy
        with pytest.raises(TypeError):
            vocab.specials["UNK"] = 0
        assert vocab.unk_id == 20
        assert json.loads(vocab.to_json_bytes())["specials"] == {name: 16 + i for i, name in enumerate(SPECIAL_TOKENS)}
        assert vocab.to_json_bytes() == build_kmer_vocab(2).to_json_bytes()


    def test_pickles_and_deep_copies_without_its_caches(self):
        vocab = bpe_vocab_from_merges([("A", "T"), ("AT", "C")])
        vocab.merge_table
        for copy in (pickle.loads(pickle.dumps(vocab)), deepcopy(vocab)):
            assert copy == vocab and copy.to_json_bytes() == vocab.to_json_bytes()
            assert "merge_table" not in vars(copy)


class TestSerialization:
    def test_round_trip_bytes_exact(self, tmp_path):
        vocab = build_kmer_vocab(3, include_n_tokens=True)
        path = tmp_path / "vocab.json"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded == vocab
        again = tmp_path / "again.json"
        loaded.save(again)
        assert path.read_bytes() == again.read_bytes()

    def test_lf_endings_and_format_version(self, tmp_path):
        vocab = build_kmer_vocab(1)
        path = tmp_path / "v.json"
        vocab.save(path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert json.loads(data)["format_version"] == 1

    def test_bpe_round_trip_keeps_merge_order(self, tmp_path):
        vocab = bpe_vocab_from_merges([("A", "T"), ("C", "G"), ("AT", "CG")])
        path = tmp_path / "bpe.json"
        vocab.save(path)
        assert Vocabulary.load(path).merges == vocab.merges

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([1, 2], "a JSON list, not an object"),
            ({"tokens": ["A"], "specials": {}}, "has no 'kind'"),
            ({"kind": "bpe", "specials": {}}, "has no 'tokens'"),
            ({"kind": "bpe", "tokens": ["A"]}, "has no 'specials'"),
            ({"kind": 3, "tokens": ["A"], "specials": {}}, "'kind' must be one of kmer, word, bpe"),
            ({"kind": "kmers", "tokens": ["A"], "specials": {}}, "'kind' must be one of kmer, word, bpe"),
            ({"kind": "bpe", "tokens": "ACGT", "specials": {}}, "'tokens' must be a list of strings"),
            ({"kind": "bpe", "tokens": ["A", 1], "specials": {}}, "'tokens' must be a list of strings"),
            ({"kind": "bpe", "tokens": ["A"], "specials": ["UNK"]}, "'specials' must be an object"),
            ({"kind": "bpe", "tokens": ["A", "[UNK]"], "specials": {"UNK": "1"}}, "'specials' must be an object"),
            ({"kind": "kmer", "tokens": ["A"], "specials": {}, "k": "1"}, "'k' must be an integer or null"),
            ({"kind": "bpe", "tokens": ["A"], "specials": {}, "merges": [["A"]]}, "'merges' must be a list of"),
        ],
    )
    def test_rejects_a_file_of_another_shape(self, obj, message):
        if isinstance(obj, dict):
            obj = {"format_version": 1, **obj}
        with pytest.raises(DataError, match=re.escape(message)):
            Vocabulary.from_json_bytes(json.dumps(obj).encode())

    @pytest.mark.parametrize("kind", ["kmer", "word"])
    @pytest.mark.parametrize("k", [None, -1, 0, 13])
    def test_rejects_an_unusable_k_at_load(self, kind, k):
        obj = {**json.loads(build_kmer_vocab(2).to_json_bytes()), "kind": kind, "k": k}
        message = f"{kind} vocabulary requires an integer k in [1, 12], got {k!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            Vocabulary.from_json_bytes(json.dumps(obj).encode())

    def test_takes_a_numpy_integer_k_as_a_plain_int(self):
        v = build_kmer_vocab(2)
        got = Vocabulary("kmer", v.tokens, dict(v.specials), k=np.int64(2))
        assert type(got.k) is int
        assert got.to_json_bytes() == Vocabulary("kmer", v.tokens, dict(v.specials), k=2).to_json_bytes()

    @pytest.mark.parametrize(
        "k", [True, np.True_, 2.0, "2", np.int64(13)], ids=["bool", "numpy_bool", "float", "string", "numpy_13"]
    )
    def test_rejects_a_k_that_is_no_usable_integer(self, k):
        v = build_kmer_vocab(2)
        message = f"kmer vocabulary requires an integer k in [1, 12], got {k!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            Vocabulary("kmer", v.tokens, dict(v.specials), k=k)

    def test_rejects_duplicate_tokens(self):
        with pytest.raises(DataError):
            Vocabulary(kind="bpe", tokens=("A", "A"), specials={})

    def test_cull_must_not_be_special(self):
        toks = ("A", "C", "G", "T", CULL_TOKEN)
        with pytest.raises(DataError):
            Vocabulary(kind="bpe", tokens=toks, specials={"CULL": 4})


class TestPackageNamespace:
    """``dnaprep`` exports the same names as when it imported every submodule eagerly."""

    EXPORTS = {
        "core": "BPE CULL_TOKEN KMER WORD CullSpec DnaSequence Vocabulary build_kmer_vocab bpe_vocab_from_merges "
        "cull_vocab remap_ids reverse_complement",
        "errors": "ConfigError ConstraintError DataError DnaPrepError ResourceLimitError",
        "fasta": "read_fasta",
        "guiding": "GuidingTargets csp_targets ftm_targets mst_apply sop_transform",
        "leakage": "LeakageReport candidate_space_size empirical_plan_leakage enumerate_consistent_completions "
        "leakage_ratio leakage_report masked_run_window max_entropy_ratio",
        "masking": "MODE_FIXED MODE_FLAWED MaskConfig MaskPlan neighbor_mask select_targets verify_no_leakage",
        "benchstats": "CriteriaReport RunRecord ScalingRecord criteria_report dataset_sigma ols_fit shapiro_wilk "
        "stability_filter validity_filter",
        "pipeline": "PipelineConfig build_record iter_windows run_pipeline",
        "tokenizers": "N_MODE_AS_UNK N_MODE_DROP N_MODE_SEG TokenizerSpec bpe_encode bpe_train bpe_train_sizes "
        "decode_ids kmer_tokenize kmer_tokenize_parallel tokenize word_tokenize",
        "vocabstats": "TokenStats bucket_tokens compute_token_stats",
    }
    NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]

    def test_all_is_the_export_list(self):
        assert len(self.NAMES) == 66
        assert dnaprep.__all__ == [name for _, name in self.NAMES]

    @pytest.mark.parametrize("module, name", NAMES)
    def test_each_name_is_its_submodules_object(self, module, name):
        assert getattr(dnaprep, name) is getattr(importlib.import_module(f"dnaprep.{module}"), name)

    def test_star_import_and_dir_list_every_name(self):
        namespace = {}
        exec("from dnaprep import *", namespace)
        assert {name for name in namespace if name != "__builtins__"} == set(dnaprep.__all__)
        assert set(dnaprep.__all__) | set(self.EXPORTS) | {"__version__"} <= set(dir(dnaprep))

    def test_unknown_name_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            dnaprep.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from dnaprep import no_such_name", {})

    def test_assignment_routes_calls_until_restored(self, monkeypatch):
        from dnaprep import pipeline

        monkeypatch.delitem(vars(dnaprep), "run_pipeline", raising=False)  # not yet looked up
        original = dnaprep.run_pipeline
        dnaprep.run_pipeline = lambda cfg: ("routed", cfg)
        try:
            assert dnaprep.run_pipeline("cfg") == ("routed", "cfg")
        finally:
            dnaprep.run_pipeline = original
        assert dnaprep.run_pipeline is original is pipeline.run_pipeline


def _short_kmer_call(threads):
    from dnaprep import TokenizerSpec, kmer_tokenize_parallel

    return kmer_tokenize_parallel(DnaSequence("ACGTACGT"), TokenizerSpec(build_kmer_vocab(3)), threads=threads)


def _bpe_call(target_size):
    from dnaprep import bpe_train

    return bpe_train([DnaSequence("ACGTACGTAACCGGTT" * 4)], target_size)


def _pipeline_seed(seed):
    """A config's master_seed, once its manifest's config is JSON (which refuses a numpy integer)."""
    from dnaprep import PipelineConfig

    cfg = PipelineConfig("v.json", "in.fa", "out.jsonl", master_seed=seed)
    json.dumps(dataclasses.asdict(cfg))
    return cfg.master_seed


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: build_kmer_vocab(np.int64(3)).k, 3),
        (lambda: _pipeline_seed(np.int64(3)), 3),
        (lambda: dnaprep.MaskConfig(k=np.int64(3)).k, 3),
        (lambda: build_kmer_vocab(2.0), (ConfigError, "k must be an integer, got 2.0")),
        (lambda: build_kmer_vocab(True), (ConfigError, "k must be an integer, got True")),
        (lambda: _bpe_call(4.5), (ConfigError, "target_size must be an integer, got 4.5")),
        (lambda: _short_kmer_call(2.0), (ConfigError, "threads must be an integer, got 2.0")),
        (lambda: dnaprep.leakage_ratio(2.5, 3), (ValueError, "k must be an integer, got 2.5")),
        (lambda: dnaprep.leakage_ratio(3, True), (ValueError, "m must be an integer, got True")),
        (lambda: dnaprep.iter_windows([], 2.5), (ConfigError, "window must be an integer, got 2.5")),
    ],
    ids=[
        "vocab_np_k", "pipeline_np_seed", "mask_np_k", "vocab_float_k", "vocab_bool_k", "bpe_float_size",
        "parallel_float_threads", "leakage_float_k", "leakage_bool_m", "windows_float",
    ],
)
def test_one_integer_rule_at_every_entry_point(call, expected):
    """A numpy integer is taken and kept as a plain int; a bool or a float is refused with the site's error."""
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error, match=re.escape(message)) as info:
            call()
        assert type(info.value) is error
    else:
        value = call()
        assert value == expected and type(value) is int
