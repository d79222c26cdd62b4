"""Tokenizing DNA three ways: overlapping k-mer, word, and BPE.

Run: python demos/01_tokenize_dna.py
"""

import numpy as np

from dnaprep import (
    DnaSequence,
    TokenizerSpec,
    bpe_encode,
    bpe_train,
    build_kmer_vocab,
    decode_ids,
    kmer_tokenize,
    word_tokenize,
)

seq = DnaSequence("ATCGGATTACA", source_id="demo")
print(f"input sequence: {seq.bases}\n")

# Overlapping k-mers slide a width-k window one base at a time, so
# consecutive tokens share k-1 bases.
v3 = build_kmer_vocab(3)
spec = TokenizerSpec(v3)
ids = kmer_tokenize(seq, spec)
print("overlapping 3-mers:", [v3.tokens[i] for i in ids])

# The word tokenizer tiles the sequence without overlap and drops the
# sub-k remainder.
w3 = build_kmer_vocab(3, kind="word")
ids = word_tokenize(seq, TokenizerSpec(w3))
print("word (stride 3):   ", [w3.tokens[i] for i in ids])

# Sentinels wrap the output for model input.
ids = kmer_tokenize(seq, TokenizerSpec(v3, add_sentinels=True))
print("with sentinels:    ", [v3.tokens[i] for i in ids])

# Unknown bases ("N") have three handling modes.
messy = DnaSequence("ACGTNNNACGT")
print(f"\nsequence with unknowns: {messy.bases}")
print("as_unk:", [v3.tokens[i] for i in kmer_tokenize(messy, TokenizerSpec(v3, n_mode="as_unk"))])
print("drop:  ", [v3.tokens[i] for i in kmer_tokenize(messy, TokenizerSpec(v3, n_mode="drop"))])
vn = build_kmer_vocab(3, include_n_tokens=True)
print("seg_n: ", [vn.tokens[i] for i in kmer_tokenize(messy, TokenizerSpec(vn, n_mode="seg_n"))])
wn = build_kmer_vocab(3, include_n_tokens=True, kind="word")
print("word seg_n tiling:", [wn.tokens[i] for i in word_tokenize(messy, TokenizerSpec(wn, n_mode="seg_n"))])

# BPE learns merges from data. Train a tiny vocabulary on a synthetic
# corpus and watch encode/decode round-trip exactly.
rng = np.random.default_rng(0)
corpus = DnaSequence("".join(rng.choice(list("ACGT"), size=5000)))
bpe = bpe_train([corpus], target_size=12)
print(f"\nBPE merges learned: {list(bpe.merges)}")
sample = DnaSequence("ACGTTGCA")
ids = bpe_encode(sample, bpe)
print("BPE encode ACGTTGCA:", [bpe.tokens[i] for i in ids])
print("decode round-trip:  ", decode_ids(ids, bpe))
