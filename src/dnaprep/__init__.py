"""dnaprep: deterministic DNA pretraining-data toolkit.

Tokenizers (overlapping k-mer, word, BPE), leakage-free neighbor masking
with a faithful flawed-replication mode, guiding-task target generation,
analytic leakage quantification, vocabulary statistics and culling, and
the statistical gate for selecting downstream benchmark datasets.

``import dnaprep`` loads no submodule. Each name below is imported from
its submodule on first access (PEP 562) and then bound in this namespace,
so a caller pays only for the modules it uses, and assigning a name here
(as a tracer does) reroutes later lookups through the package.
"""

import importlib

__version__ = "0.1.0"

# The choice lists the CLI parser offers, and their members. They live
# here, where no numpy is imported, so that the parser loads no submodule;
# the modules that use them import them from here.
KMER = "kmer"
WORD = "word"
BPE = "bpe"
VOCAB_KINDS = (KMER, WORD, BPE)

N_MODE_AS_UNK = "as_unk"
N_MODE_DROP = "drop"
N_MODE_SEG = "seg_n"
N_MODES = (N_MODE_AS_UNK, N_MODE_DROP, N_MODE_SEG)

MODE_FIXED = "fixed"
MODE_FLAWED = "flawed"
MASK_MODES = (MODE_FIXED, MODE_FLAWED)

TASK_FTM = "ftm"
TASK_MST = "mst"
TASK_SOP = "sop"
TASK_CSP = "csp"
GUIDING_TASKS = (TASK_FTM, TASK_MST, TASK_SOP, TASK_CSP)

STD_SAMPLE = "sample"
STD_POPULATION = "population"
STD_ESTIMATORS = (STD_SAMPLE, STD_POPULATION)

# submodule -> the names the package exports from it (the constants above
# are listed with the submodule that re-exports them, which fixes their
# place in ``__all__``)
_EXPORTS = {
    "core": (
        "BPE",
        "CULL_TOKEN",
        "KMER",
        "WORD",
        "CullSpec",
        "DnaSequence",
        "Vocabulary",
        "build_kmer_vocab",
        "bpe_vocab_from_merges",
        "cull_vocab",
        "remap_ids",
        "reverse_complement",
    ),
    "errors": ("ConfigError", "ConstraintError", "DataError", "DnaPrepError", "ResourceLimitError"),
    "fasta": ("read_fasta",),
    "guiding": ("GuidingTargets", "csp_targets", "ftm_targets", "mst_apply", "sop_transform"),
    "leakage": (
        "LeakageReport",
        "candidate_space_size",
        "empirical_plan_leakage",
        "enumerate_consistent_completions",
        "leakage_ratio",
        "leakage_report",
        "masked_run_window",
        "max_entropy_ratio",
    ),
    "masking": (
        "MODE_FIXED",
        "MODE_FLAWED",
        "MaskConfig",
        "MaskPlan",
        "neighbor_mask",
        "select_targets",
        "verify_no_leakage",
    ),
    "benchstats": (
        "CriteriaReport",
        "RunRecord",
        "ScalingRecord",
        "criteria_report",
        "dataset_sigma",
        "ols_fit",
        "shapiro_wilk",
        "stability_filter",
        "validity_filter",
    ),
    "pipeline": ("PipelineConfig", "build_record", "iter_windows", "run_pipeline"),
    "tokenizers": (
        "N_MODE_AS_UNK",
        "N_MODE_DROP",
        "N_MODE_SEG",
        "TokenizerSpec",
        "bpe_encode",
        "bpe_train",
        "bpe_train_sizes",
        "decode_ids",
        "kmer_tokenize",
        "kmer_tokenize_parallel",
        "tokenize",
        "word_tokenize",
    ),
    "vocabstats": ("TokenStats", "bucket_tokens", "compute_token_stats"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet, reachable as before
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
