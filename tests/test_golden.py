"""Golden digests: the exact batch bytes of run_pipeline, pinned per configuration.

Each case runs the pipeline over one small fixed FASTA (N runs, lowercase
bases, a window tail shorter than k, a record spanning several windows,
a record shorter than k, an all-N record) and compares the sha256 of the
batch file with a digest recorded from an earlier release. The vocab-stats
CSV is pinned the same way. A change to any of these digests is a change
of the output format and must be made on purpose.
"""

import hashlib

import pytest

from dnaprep import (
    CullSpec,
    DnaSequence,
    PipelineConfig,
    TokenizerSpec,
    Vocabulary,
    bpe_train,
    bucket_tokens,
    build_kmer_vocab,
    compute_token_stats,
    cull_vocab,
    read_fasta,
    run_pipeline,
)
from dnaprep.vocabstats import write_stats_csv

FASTA = (
    ">chr_a first record, several windows\n"
    "ACGTTGCAACGGATCCATGCAAGTCTTGACGATCGTAGCTAGGCTAACGTTAGCCGATTACG\n"
    "acgtacggttcaNNNNNNNNNNNNNGATTACAGATTACAcccgggtttaaaACGTNNNACGT\n"
    "TTGACCAGGTACCATGGATCGATCGGCCTAGCTAGCATGCATGCAACCTTGGAAGGTACCA\n"
    "GGCTTAAGCCGGTTAANNACGTACGATCGATTGCAGCgcgcatatGCATGCAATTGG\n"
    "ACGTC\n"
    ">chr_b\n"
    "ACGTA\n"
    ">chr_c lowercase and gaps\n"
    "ggatccNNNNNNNNaattcgcgcgatatatcgcgNacgtacgtTTGGCCAAGGCCTTAANN\n"
    ">chr_d\n"
    "NNNN\n"
    ">chr_e\n"
    "GATTACAGATTACAGATTACACATCATCATCAGGATCCGAATTCAAGCTTCTGCAGTCTAG\n"
)

ALL_TASKS = ("ftm", "mst", "sop", "csp")
NO_FTM = ("mst", "sop", "csp")
ODD_IDS = ('q"uote', "back\\slash", "tab\tid", "café", "emoji\U0001f9ec", "ctl\x01")

# name -> (vocabulary, PipelineConfig overrides); window 64 unless overridden
CASES = {
    "k6_as_unk_fixed": ("k6", dict(p=0.2)),
    "k6_drop_fixed": ("k6", dict(n_mode="drop", p=0.2)),
    "k6_seg_n_fixed": ("k6n", dict(n_mode="seg_n", p=0.2)),
    "k6_as_unk_flawed": ("k6", dict(mode="flawed", p=0.2)),
    "k3_flawed_no_sentinels": ("k3", dict(mode="flawed", add_sentinels=False, p=0.3)),
    "k6_default_window": ("k6", dict(window=512, master_seed=7)),
    "word3_fixed": ("word3", dict(p=0.3)),
    "word3_flawed": ("word3", dict(mode="flawed", p=0.3)),
    "word3_seg_n": ("word3n", dict(n_mode="seg_n", p=0.3)),
    "bpe_fixed": ("bpe", dict(p=0.3)),
    "bpe_drop_flawed": ("bpe", dict(n_mode="drop", mode="flawed", p=0.3)),
    "k6_guide_all": ("k6", dict(guiding=ALL_TASKS, sop_reverse_prob=0.5, p=0.2)),
    "k6_seg_n_guide_all": ("k6n", dict(n_mode="seg_n", guiding=ALL_TASKS, sop_reverse_prob=0.5)),
    "k6_guide_all_no_sentinels": ("k6", dict(guiding=ALL_TASKS, add_sentinels=False, sop_reverse_prob=0.5)),
    "k3_flawed_guide": ("k3", dict(mode="flawed", guiding=NO_FTM, sop_reverse_prob=0.5, p=0.3)),
    "k3_culled_guide": ("k3_culled", dict(guiding=("csp", "ftm", "mst"), p=0.3)),
    "word3_guide": ("word3", dict(guiding=NO_FTM, sop_reverse_prob=0.5, p=0.3)),
    "bpe_guide": ("bpe", dict(guiding=NO_FTM, sop_reverse_prob=0.5, p=0.3)),
    # 262149 tokens: the largest vocabulary, and the largest encoder text table
    "k9_guide_all": ("k9", dict(guiding=ALL_TASKS, sop_reverse_prob=0.5, p=0.2)),
}

DIGESTS = {
    "k6_as_unk_fixed": "9ffdaa7b36d8ce9b1515117d102652f82645dc1834918a61061ca4b37c494495",
    "k6_drop_fixed": "f925da84a1b0b6a5ad1099009d49eaba542a2d4933a6e1e00696a73eb83f2ea5",
    "k6_seg_n_fixed": "b25b281e73a67118f57e50aa46a58fd4e65eedf7bedb210e95e3af37bb49bc46",
    "k6_as_unk_flawed": "ae3acec79d45aa9df5bf4cd0ad420323383f7d33adfc3550b33d8b42325de432",
    "k3_flawed_no_sentinels": "bcf27ced5cda8e862ae5852ec44d7504f6fb96933e54ccec17586a99a3761f95",
    "k6_default_window": "e5aa95acc493e8781fc7488f8111e521e6d988ba2bc93d08c3c2fb5b1a2b4adb",
    "word3_fixed": "67726c067c112bc35b346ed53b8d30e2e525709f72213501eeeb695f524e073c",
    "word3_flawed": "4c242ebc20c52c139062e150ac07474f87d810f687b3e53c1929b5c5d85a13b6",
    "word3_seg_n": "16c74d742c6b9e2d04dc18e884a75e37a8b7d5314f835b824d21590db4aab652",
    "bpe_fixed": "9637d19932f8d1c21f2aa5e1a832e0dfe153d68f8b1d14bc623f4c016fd2afa7",
    "bpe_drop_flawed": "0c3fb62913f80f67d850a37ce8d11a3dc0e341021915ffc0eed8790f138515b1",
    "k6_guide_all": "860b8614caa513712f934d2c7667df4cd0884f0ce9e75c66f3eaaae098803c24",
    "k6_seg_n_guide_all": "b6c61c7ac7ade35ca91e9554413ab42948d800dabaa97c0e9422169be1a742c4",
    "k6_guide_all_no_sentinels": "0af4c99121e2fa232545ac9b53be682c0dd7cab4b702a72d7093d048f4a74428",
    "k3_flawed_guide": "cab5272275233c34130b805a3a160561986b54fede1de7ae2d976a10c098ddf8",
    "k3_culled_guide": "78c54b13ffe380edd8ab68c8400e9bfc56a427196f4454d9aab44580eeb1d7fc",
    "word3_guide": "a8e5a1d33c88b43338e749de08d8ebfd664e354be796d9e097f12470d77e86e5",
    "bpe_guide": "f19d56c89f115b2010b5158defb6db36e524f4def11bdb24087789f913b065aa",
    "k9_guide_all": "2dd44abcb52592180343f5516910e46001860724d4a2b0cc3025d348135c1fbc",
    "odd_seq_ids": "9c607e4e67a577284911366b33531b5e2894e751f4d671504ebbb2019503a114",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The FASTA and every vocabulary file, written once for the module."""
    root = tmp_path_factory.mktemp("golden")
    fasta = root / "in.fa"
    fasta.write_text(FASTA)
    vocabs = {
        "k3": build_kmer_vocab(3),
        "k6": build_kmer_vocab(6),
        "k6n": build_kmer_vocab(6, include_n_tokens=True),
        "k9": build_kmer_vocab(9),
        "word3": build_kmer_vocab(3, kind="word"),
        "word3n": build_kmer_vocab(3, include_n_tokens=True, kind="word"),
        "bpe": bpe_train(read_fasta(fasta), 24),
        # AAC, AAG and ACG are gone, so GTT, CTT and CGT lose their complement
        "k3_culled": cull_vocab(build_kmer_vocab(3), CullSpec(frozenset({1, 2, 6})))[0],
    }
    paths = {}
    for name, vocab in vocabs.items():
        paths[name] = root / f"{name}.json"
        vocab.save(paths[name])
    return root, fasta, paths


def batch_digest(root, fasta, vocab_path, name, sequences=None, **overrides):
    settings = dict(window=64, master_seed=11)
    settings.update(overrides)
    cfg = PipelineConfig(
        vocab_path=str(vocab_path), fasta_path=str(fasta), out_path=str(root / f"{name}.jsonl"), **settings
    )
    result = run_pipeline(cfg, sequences=sequences)
    with open(result.out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == result.output_digest
    return digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_digest(inputs, name):
    root, fasta, paths = inputs
    vocab, overrides = CASES[name]
    assert batch_digest(root, fasta, paths[vocab], name, **overrides) == DIGESTS[name]


def test_threads_give_the_same_bytes(inputs):
    root, fasta, paths = inputs
    vocab, overrides = CASES["k6_guide_all"]
    got = batch_digest(root, fasta, paths[vocab], "threads", threads=2, **overrides)
    assert got == DIGESTS["k6_guide_all"]


def test_odd_seq_ids_are_escaped(inputs):
    """Quotes, backslashes, control and non-ASCII characters in ids, from the library entry point."""
    root, fasta, paths = inputs
    bases = "ACGTTGCAACGGATCCATGCAAGTCTTGACGATCGTAGCTAGG"
    seqs = [DnaSequence(bases[i:] + bases[:i], seq_id) for i, seq_id in enumerate(ODD_IDS)]
    seqs.append(DnaSequence(bases * 3, "longé"))
    got = batch_digest(root, fasta, paths["k6"], "odd", sequences=seqs, guiding=ALL_TASKS, sop_reverse_prob=0.5, p=0.05)
    assert got == DIGESTS["odd_seq_ids"]


# name -> (vocabulary, TokenizerSpec overrides, with an accuracy map and buckets)
CSV_CASES = {
    "k6_as_unk_sentinels": ("k6", dict(add_sentinels=True), False),
    "k6_seg_n": ("k6n", dict(n_mode="seg_n"), False),
    "word3": ("word3", {}, False),
    "bpe": ("bpe", {}, False),
    "k3_culled_accuracy_buckets": ("k3_culled", {}, True),
}

CSV_DIGESTS = {
    "k6_as_unk_sentinels": "5a6fcad3e5a566971ad5b52151eb724a303920c62dea152aa4b8830be93efaf5",
    "k6_seg_n": "12102760289bb4945c3a846c850ca2c1dea1ba7d7a266ef9114227297441a8f3",
    "word3": "c0655316a3de9da18df4765aa32f694d80bb96d00d60214548aebab3fbe18e7a",
    "bpe": "6323d29539ce84a00d64889883c759eb4ef38cbdfe6c9c5bf0b22a7168cc0083",
    "k3_culled_accuracy_buckets": "2348aaf250d1dd6cfef534d2456be2940d5e7c4da14f47066d1c51870b201b52",
}


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_vocab_stats_csv_digest(inputs, name):
    root, fasta, paths = inputs
    vocab_name, overrides, with_accuracy = CSV_CASES[name]
    vocab = Vocabulary.load(paths[vocab_name])
    # spread, tied and repeated accuracies over every non-special id, [CULL] included
    accuracy = {i: (i * 37 % 11) / 10 for i in range(vocab.n_nonspecial)} if with_accuracy else None
    stats = compute_token_stats(read_fasta(fasta), TokenizerSpec(vocab, **overrides), accuracy=accuracy)
    out = root / f"{name}.csv"
    write_stats_csv(out, stats, bucket_tokens(stats) if with_accuracy else None)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_DIGESTS[name]
