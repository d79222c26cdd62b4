"""The four guiding tasks that ease masked-prediction pretraining.

Each task turns one aspect of the data into cheap auxiliary supervision:
FTM labels the leakage-prevention neighbors, MST masks and labels the
sentinels, SOP swaps segment order for a binary label, and CSP labels
unmasked tokens with their reverse complement.

Run: python demos/03_guiding_targets.py
"""

import numpy as np

from dnaprep import (
    MaskConfig,
    build_kmer_vocab,
    csp_targets,
    ftm_targets,
    mst_apply,
    neighbor_mask,
    sop_transform,
)

vocab = build_kmer_vocab(3)
tokens = np.array(
    [vocab.special_id("CLS")] + [vocab.id_of(t) for t in ("ACG", "CGT", "GTA", "TAC", "ACG", "CGG")]
    + [vocab.special_id("SEP")]
)
cfg = MaskConfig.for_vocab(vocab, mode="fixed")
plan = neighbor_mask(tokens, [3], cfg)
print("targets:", plan.m_positions, " input-masked:", plan.m_in_positions)

ftm = ftm_targets(plan)
print("\nFTM positions (masked but not targets):", ftm.positions)
print("FTM labels:", {p: vocab.tokens[l] for p, l in ftm.labels.items()})

new_input, mst = mst_apply(tokens, plan)
print("\nMST masks sentinels at:", mst.positions)
print("MST labels:", {p: vocab.tokens[l] for p, l in mst.labels.items()})

rng = np.random.default_rng(1)
swapped, label = sop_transform(tokens, 1.0, rng, first_special_id=vocab.n_nonspecial)
print("\nSOP forced swap, label =", label)
print("  before:", [vocab.tokens[i] for i in tokens[1:-1]])
print("  after: ", [vocab.tokens[i] for i in swapped[1:-1]])

csp = csp_targets(plan, vocab)
print("\nCSP labels the strictly unmasked positions with reverse complements:")
for pos in csp.positions:
    original = vocab.tokens[int(tokens[pos])]
    print(f"  position {pos}: {original} -> {vocab.tokens[csp.labels[pos]]}")
