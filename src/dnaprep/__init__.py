"""dnaprep: deterministic DNA pretraining-data toolkit.

Tokenizers (overlapping k-mer, word, BPE), leakage-free neighbor masking
with a faithful flawed-replication mode, guiding-task target generation,
analytic leakage quantification, vocabulary statistics and culling, and
the statistical gate for selecting downstream benchmark datasets.
"""

__version__ = "0.1.0"

from .core import (
    BPE,
    CULL_TOKEN,
    KMER,
    WORD,
    DnaSequence,
    Vocabulary,
    build_kmer_vocab,
    bpe_vocab_from_merges,
    reverse_complement,
)
from .errors import ConfigError, ConstraintError, DataError, DnaPrepError, ResourceLimitError
from .fasta import read_fasta
from .guiding import (
    GuidingTargets,
    csp_targets,
    ftm_targets,
    mst_apply,
    sop_transform,
)
from .leakage import (
    LeakageReport,
    candidate_space_size,
    empirical_plan_leakage,
    enumerate_consistent_completions,
    leakage_ratio,
    leakage_report,
    masked_run_window,
    max_entropy_ratio,
)
from .masking import (
    MODE_FIXED,
    MODE_FLAWED,
    MaskConfig,
    MaskPlan,
    neighbor_mask,
    select_targets,
    verify_no_leakage,
)
from .benchstats import (
    CriteriaReport,
    RunRecord,
    ScalingRecord,
    criteria_report,
    dataset_sigma,
    ols_fit,
    shapiro_wilk,
    stability_filter,
    validity_filter,
)
from .pipeline import PipelineConfig, build_record, iter_windows, run_pipeline
from .tokenizers import (
    N_MODE_AS_UNK,
    N_MODE_DROP,
    N_MODE_SEG,
    TokenizerSpec,
    bpe_encode,
    bpe_train,
    bpe_train_sizes,
    decode_ids,
    kmer_tokenize,
    kmer_tokenize_parallel,
    tokenize,
    word_tokenize,
)
from .vocabstats import (
    CullSpec,
    TokenStats,
    bucket_tokens,
    compute_token_stats,
    cull_vocab,
    remap_ids,
)
