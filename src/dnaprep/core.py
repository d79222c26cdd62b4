"""Nucleotide sequences, token vocabularies, culling, and reverse-complement machinery.

Everything downstream (tokenizers, masking, statistics) is built on the two
types defined here: :class:`DnaSequence`, a validated uppercase nucleotide
string, and :class:`Vocabulary`, an ordered token set with special-token
bookkeeping and the tables built from it: k-mer values, reverse-complement
labels, the N-run cover and the BPE merge table. :data:`BASE_CODES` is the
one base-code table: the tokenizers and the k-mer value table read it.

Every vocabulary is built here: k-mer and word sets, BPE sets from their
merges, and culled sets. :func:`cull_vocab` replaces at most 10% of the
non-special tokens with one ``[CULL]`` token, and each table gives a token
the vocabulary lacks the ``[CULL]`` id (-1 without one), so encoding under
a culled vocabulary differs from the original only where a token was removed.

Conventions fixed here for determinism:

* nucleotide order is ``A < C < G < T``, so the id of a k-mer equals its
  base-4 value under A=0, C=1, G=2, T=3;
* special tokens ``[CLS] [SEP] [MASK] [PAD] [UNK]`` are appended after all
  non-special tokens, keeping non-special ids contiguous from 0;
* ``[CULL]`` (the replacement token for pruned entries) is an ordinary,
  non-special token;
* the reverse complement of ``N`` is ``N``.

Both types are frozen after construction (a vocabulary's ``specials`` is a
read-only mapping), so the tables a vocabulary caches stay true to it, and
both are safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import BPE, KMER, VOCAB_KINDS, WORD
from .errors import ConfigError, ConstraintError, DataError

NUCLEOTIDES = "ACGT"
N_CHAR = "N"

MAX_K = 12  # the widest k-mer: 4**12 values and the specials fit int32 ids

SPECIAL_NAMES = ("CLS", "SEP", "MASK", "PAD", "UNK")
SPECIAL_TOKENS = {name: f"[{name}]" for name in SPECIAL_NAMES}
CULL_TOKEN = "[CULL]"
CULL_FRACTION_MAX = 0.10  # the most of a vocabulary's non-special tokens that culling may remove

VOCAB_FORMAT_VERSION = 1

_COMPLEMENT = str.maketrans("ACGTN", "TGCAN")
# a valid base byte to its uppercase, every other byte to 0, which no valid sequence holds
_UPPER_OR_ZERO = bytes(b if chr(b) in "ACGTN" else b - 32 if chr(b) in "acgtn" else 0 for b in range(256))
BASE_CODES = bytes(NUCLEOTIDES.find(chr(b)) % 5 for b in range(256))  # A, C, G, T -> 0..3, every other byte 4
_LUT_CHUNK = 1 << 16  # token strings kmer_value_table reads at once


def _validate_bases(text: str) -> str:
    """Uppercase ``text`` and check it only contains A/C/G/T/N.

    Returns the normalized string; raises :class:`DataError` naming the
    first offending byte and its offset otherwise.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise DataError(f"non-ASCII character in sequence at offset {exc.start}") from None
    raw = raw.translate(_UPPER_OR_ZERO)  # one pass checks and uppercases; rebinding frees the encoded copy
    bad = raw.find(0)
    if bad >= 0:
        raise DataError(f"invalid symbol {text[bad].upper().encode()!r} at offset {bad}")
    return raw.decode("ascii")


@dataclass(frozen=True)
class DnaSequence:
    """An immutable DNA sequence over the alphabet ``{A, C, G, T, N}``.

    Lowercase input is uppercased on construction (soft-masked regions are
    treated as ordinary bases); any other symbol is rejected. Empty
    sequences are legal and tokenize to empty token lists.
    """

    bases: str
    source_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", _validate_bases(self.bases))

    def __len__(self) -> int:
        return len(self.bases)


def subsequence(seq: DnaSequence, start: int, stop: int, source_id: str = "") -> DnaSequence:
    """``seq``'s bases ``start:stop`` as a :class:`DnaSequence`, not checked again.

    A slice of valid bases is valid, so the frozen fields are set
    directly: 0.5 us for a 512-base window, against 1.9 us through the
    checking constructor.
    """
    out = object.__new__(DnaSequence)
    fields = out.__dict__
    fields["bases"] = seq.bases[start:stop]
    fields["source_id"] = source_id
    return out


def reverse_complement(seq: DnaSequence) -> DnaSequence:
    """Return the reverse complement (A<->T, C<->G, N->N) of ``seq``."""
    return DnaSequence(rc_string(seq.bases), seq.source_id)


def rc_string(bases: str) -> str:
    """Reverse-complement a plain nucleotide string (no validation)."""
    return bases.translate(_COMPLEMENT)[::-1]


class BpeMergeTable(NamedTuple):
    """A BPE vocabulary's merge rules over merge-space ids, the form the encoder works in.

    Merge-space ids number A, C, G and T 0..3 (their base codes), then
    every other string that a merge names, in order of first mention.
    """

    strings: tuple[str, ...]  # merge-space id -> string
    shift: int  # a pair's key is ``left << shift | right``
    pair_ranks: dict[int, int]  # pair key -> rank of the first rule for that pair
    rules: tuple[tuple[int, int, int], ...]  # rank -> (left, right, output)
    ids: np.ndarray  # merge-space id -> vocabulary id: [CULL] where culled, -1 where missing without one


def as_int(value, name: str, error: type[Exception] = ConfigError, kind: str = "an integer") -> int:
    """``value`` as a plain int if it is an integer, numpy's included, and no bool; else ``error`` naming it."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token set: index in ``tokens`` is the token id.

    ``specials`` maps the names CLS/SEP/MASK/PAD/UNK to their ids; special
    ids always occupy the tail of the id range so non-special ids are
    contiguous from 0 (stable label spaces when culling). ``merges`` is
    only populated for BPE vocabularies and records the ordered merge
    rules used to rebuild the token set and to encode. Fields cannot be
    assigned after construction and ``specials`` is read-only.
    """

    kind: str
    tokens: tuple[str, ...]
    specials: Mapping[str, int]
    k: int | None = None
    merges: tuple[tuple[str, str], ...] = ()

    _token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in VOCAB_KINDS:
            raise ConfigError(f"unknown vocabulary kind {self.kind!r}")
        if self.kind in (KMER, WORD):
            try:
                k = as_int(self.k, "k", DataError)
            except DataError:
                k = 0
            if not 1 <= k <= MAX_K:
                raise DataError(f"{self.kind} vocabulary requires an integer k in [1, {MAX_K}], got {self.k!r}")
            object.__setattr__(self, "k", k)
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "specials", MappingProxyType(dict(self.specials)))
        object.__setattr__(self, "merges", tuple((l, r) for l, r in self.merges))
        object.__setattr__(self, "_token_to_id", {t: i for i, t in enumerate(self.tokens)})
        if len(self._token_to_id) != len(self.tokens):
            raise DataError("duplicate token strings in vocabulary")
        n_special = len(self.specials)
        expected = {len(self.tokens) - n_special + i for i in range(n_special)}
        if set(self.specials.values()) != expected:
            raise DataError("special tokens must occupy the tail of the id range")
        for name, sid in self.specials.items():
            if self.tokens[sid] != SPECIAL_TOKENS.get(name):
                raise DataError(f"special {name} does not match token at id {sid}")
        if CULL_TOKEN in self._token_to_id and self._token_to_id[CULL_TOKEN] >= self.n_nonspecial:
            raise DataError(f"{CULL_TOKEN} must not be a special token")

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; rebuild from the fields, without the caches
        return Vocabulary, (self.kind, self.tokens, dict(self.specials), self.k, self.merges)

    # -- id bookkeeping ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def n_nonspecial(self) -> int:
        return len(self.tokens) - len(self.specials)

    def special_id(self, name: str) -> int:
        return self.specials[name]

    def is_special(self, token_id: int) -> bool:
        return token_id >= self.n_nonspecial

    @property
    def mask_id(self) -> int:
        return self.specials["MASK"]

    @property
    def unk_id(self) -> int:
        return self.specials["UNK"]

    @property
    def cull_id(self) -> int | None:
        return self._token_to_id.get(CULL_TOKEN)

    @property
    def _missing_id(self) -> int:
        """What a table gives a token the vocabulary lacks: the [CULL] id, or -1 without one."""
        return self._token_to_id.get(CULL_TOKEN, -1)

    def id_of(self, token: str) -> int:
        try:
            return self._token_to_id[token]
        except KeyError:
            raise DataError(f"token {token!r} not in vocabulary") from None

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    # -- reverse complement ------------------------------------------------

    def rc_label(self, token_id: int) -> int:
        """Map a non-special token id to its reverse-complement label id.

        For RC-closed vocabularies (k-mer / word) this is the id of the
        reverse-complement token, or of [CULL] when a culled vocabulary
        lost it. For BPE the label lives in a parallel label space indexed
        identically to the vocabulary (label i means "reverse complement of
        token i"), so the id is returned unchanged.
        """
        if self.is_special(token_id):
            raise ValueError(f"special token id {token_id} has no reverse complement")
        label = int(self.rc_labels[token_id])
        if label < 0:
            raise ValueError(f"reverse complement {rc_string(self.tokens[token_id])!r} missing from vocabulary")
        return label

    # -- tables built from the vocabulary on first use, then kept ----------

    @functools.cached_property
    def n_run_cover(self) -> tuple[tuple[int, int], ...]:
        """The ``(width, id)`` of each N-run token, longest first: what seg_n covers N runs with."""
        cover = [(len(t), i) for i, t in enumerate(self.tokens) if set(t) == {N_CHAR}]
        return tuple(sorted(cover, reverse=True))  # N-run tokens are distinct, so are their widths

    @functools.cached_property
    def rc_labels(self) -> np.ndarray:
        """``rc_label(i)`` for every id, -1 where it raises (special ids, missing complements). Read-only.

        A k-mer of A, C, G and T is complemented by arithmetic on its base-4
        value, and the result found among the vocabulary's k-mer values by a
        sorted search, so no table of 4**k entries is made. Every other token
        ([CULL], N runs) is looked up by its reverse-complement string.
        """
        n = self.n_nonspecial
        lut = np.full(len(self.tokens), -1, dtype=np.int32)
        if self.kind == BPE:
            lut[:n] = np.arange(n)
        else:
            fill = self._missing_id
            lut[:n] = fill
            ids, values = _pure_kmers(self.tokens[:n], self.k)
            rc, digits = np.zeros_like(values), values
            for _ in range(self.k):  # complement each digit, last digit first
                rc = rc << 2 | 3 - (digits & 3)
                digits = digits >> 2
            order = values.argsort()
            found = order[np.searchsorted(values, rc, sorter=order).clip(max=values.size - 1)]
            hit = values[found] == rc
            lut[ids[hit]] = ids[found[hit]]
            rest = np.ones(n, dtype=bool)
            rest[ids] = False
            to_id = self._token_to_id.get
            for i in rest.nonzero()[0].tolist():
                lut[i] = to_id(rc_string(self.tokens[i]), fill)
        lut.flags.writeable = False
        return lut

    @functools.cached_property
    def kmer_value_table(self) -> np.ndarray | None:
        """Map the base-4 value of a k-mer to its id.

        None when the k-mers hold ids 0 .. 4**k - 1 in value order (the
        mapping is the identity, so callers can skip the gather); for a
        culled vocabulary, values whose token was removed map to the [CULL]
        id. The tokens are read ``_LUT_CHUNK`` at a time, so that beside
        the table itself only one chunk's arrays are held.
        """
        k = self.k
        lut = np.full(4**k, -1, dtype=np.int32)
        identity, n_kmers = True, 0
        for first in range(0, len(self.tokens), _LUT_CHUNK):
            ids, values = _pure_kmers(self.tokens[first : first + _LUT_CHUNK], k)
            ids += first
            lut[values] = ids
            # token strings are distinct, so 4**k k-mers each at its own value is the identity
            identity = identity and np.array_equal(ids, values)
            n_kmers += ids.size
        if identity and n_kmers == lut.size:
            return None
        missing = lut < 0
        if missing.any():
            if self._missing_id < 0:
                raise DataError(f"vocabulary is missing k-mers and has no {CULL_TOKEN} token")
            lut[missing] = self._missing_id
        return lut

    @functools.cached_property
    def merge_table(self) -> BpeMergeTable:
        """The merges in merge space: each rule's ids, each pair's first rank, each id's vocabulary id."""
        space = {base: code for code, base in enumerate(NUCLEOTIDES)}
        rules = tuple(
            (space.setdefault(l, len(space)), space.setdefault(r, len(space)), space.setdefault(l + r, len(space)))
            for l, r in self.merges
        )
        shift = len(space).bit_length()
        pair_ranks: dict[int, int] = {}
        for rank, (l, r, _) in enumerate(rules):
            pair_ranks.setdefault(l << shift | r, rank)
        ids = np.array([self._token_to_id.get(s, self._missing_id) for s in space], dtype=np.int32)
        ids.flags.writeable = False
        return BpeMergeTable(tuple(space), shift, pair_ranks, rules, ids)

    # -- serialization -----------------------------------------------------

    def to_json_bytes(self) -> bytes:
        obj = {
            "format_version": VOCAB_FORMAT_VERSION,
            "kind": self.kind,
            "k": self.k,
            "tokens": list(self.tokens),
            "specials": dict(self.specials),
            "merges": [[l, r] for l, r in self.merges],
        }
        return (json.dumps(obj, indent=1) + "\n").encode("utf-8")

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "Vocabulary":
        """Parse a vocabulary file; a file of another shape is a DataError naming what is wrong."""
        try:
            obj = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"not a vocabulary file: {exc}") from None
        if not isinstance(obj, dict):
            raise DataError(f"not a vocabulary file: a JSON {type(obj).__name__}, not an object")
        if obj.get("format_version") != VOCAB_FORMAT_VERSION:
            raise DataError(f"unsupported vocabulary format_version {obj.get('format_version')!r}")
        fields = {"k": None, "merges": [], **obj}
        for key, (valid, what) in _VOCAB_FIELDS.items():
            if key not in fields:
                raise DataError(f"vocabulary file has no {key!r}")
            if not valid(fields[key]):
                raise DataError(f"vocabulary {key!r} must be {what}")
        return cls(**{key: fields[key] for key in _VOCAB_FIELDS})

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "rb") as fh:
            return cls.from_json_bytes(fh.read())


def _pure_kmers(tokens: tuple[str, ...], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``tokens`` of the length-k tokens made of A, C, G and T, and their base-4 values.

    The tokens are joined into one byte string and the digits gathered
    from it column by column.
    """
    lengths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
    positions = (lengths == k).nonzero()[0]
    starts = np.cumsum(lengths)[positions] - k
    # one byte per character ("replace" keeps that for non-ASCII), non-ACGT as 4
    digits = np.frombuffer("".join(tokens).encode("ascii", "replace").translate(BASE_CODES), dtype=np.uint8)
    values = np.zeros(positions.size, dtype=np.int32)
    pure = np.ones(positions.size, dtype=bool)
    for j in range(k):
        digit = digits[starts + j]
        pure &= digit < 4
        values <<= 2
        values += digit
    return positions[pure], values[pure]


def _list_of(value, kind: type) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {kind}


# each field of a vocabulary file: (check, what the check wants)
_VOCAB_FIELDS = {
    "kind": (lambda v: v in VOCAB_KINDS, f"one of {', '.join(VOCAB_KINDS)}"),
    "tokens": (lambda v: _list_of(v, str), "a list of strings"),
    "specials": (lambda v: isinstance(v, dict) and _list_of([*v.values()], int), "an object of integer ids"),
    "k": (lambda v: v is None or type(v) is int, "an integer or null"),
    "merges": (
        lambda v: _list_of(v, list) and all(len(m) == 2 and _list_of(m, str) for m in v),
        "a list of string pairs",
    ),
}


def _with_specials(tokens: list[str], names=SPECIAL_NAMES) -> tuple[tuple[str, ...], dict[str, int]]:
    """``tokens`` followed by the special tokens ``names``, in order, and the specials' ids."""
    specials = {name: len(tokens) + i for i, name in enumerate(names)}
    return tuple(tokens + [SPECIAL_TOKENS[n] for n in names]), specials


def build_kmer_vocab(k: int, include_n_tokens: bool = False, kind: str = KMER) -> Vocabulary:
    """Enumerate the 4**k k-mers (A<C<G<T lexicographic) plus specials.

    With ``include_n_tokens`` the homogeneous N-run tokens ``N*k .. N``
    are appended after the k-mers; these are what the N-segmentation
    priority list draws from. ``kind`` selects whether the vocabulary is
    tagged for the overlapping (kmer) or non-overlapping (word) tokenizer;
    the token set is identical.
    """
    k = as_int(k, "k")
    if not 1 <= k <= MAX_K:
        raise ConfigError(f"k must be in [1, {MAX_K}], got {k}")
    if kind not in (KMER, WORD):
        raise ConfigError(f"build_kmer_vocab supports kmer/word kinds, got {kind!r}")
    toks = ["".join(p) for p in itertools.product(NUCLEOTIDES, repeat=k)]
    if include_n_tokens:
        toks.extend(N_CHAR * run for run in range(k, 0, -1))
    tokens, specials = _with_specials(toks)
    return Vocabulary(kind=kind, tokens=tokens, specials=specials, k=k)


def bpe_vocab_from_merges(merges) -> Vocabulary:
    """Build a BPE vocabulary from an ordered merge list.

    Tokens are the four nucleotides followed by each merge's output string
    in merge order (a rare duplicate output maps back to the existing id).
    """
    toks = list(NUCLEOTIDES)
    seen = set(toks)
    pairs = []
    for left, right in merges:
        pairs.append((left, right))
        out = left + right
        if out not in seen:
            seen.add(out)
            toks.append(out)
    tokens, specials = _with_specials(toks)
    return Vocabulary(kind=BPE, tokens=tokens, specials=specials, merges=tuple(pairs))


# -- culling ---------------------------------------------------------------------


@dataclass(frozen=True)
class CullSpec:
    """Which non-special ids to prune; the [CULL] id is assigned on culling."""

    remove_ids: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        ids = (as_int(i, "cull ids", ValueError, "integers") for i in self.remove_ids)
        object.__setattr__(self, "remove_ids", frozenset(ids))


def cull_vocab(vocab: Vocabulary, spec: CullSpec) -> tuple[Vocabulary, dict[int, int]]:
    """Remove tokens and append [CULL]; returns (culled vocab, id remap).

    The remap sends every old id to the id of the same token string in the
    culled vocabulary, and every removed id to the [CULL] id. Removal is
    capped at 10% of the non-special vocabulary; special ids cannot be removed.
    """
    if CULL_TOKEN in vocab:
        raise DataError(f"vocabulary already contains a {CULL_TOKEN} token")
    out_of_range = [i for i in spec.remove_ids if not 0 <= i < len(vocab)]
    if out_of_range:
        raise ValueError(f"cull ids out of range: {sorted(out_of_range)}")
    specials_hit = [i for i in spec.remove_ids if vocab.is_special(i)]
    if specials_hit:
        raise ValueError(f"cannot cull special token ids: {sorted(specials_hit)}")
    if len(spec.remove_ids) > CULL_FRACTION_MAX * vocab.n_nonspecial:
        raise ConstraintError(
            f"removing {len(spec.remove_ids)} of {vocab.n_nonspecial} non-special tokens "
            f"exceeds the {CULL_FRACTION_MAX:.0%} bound"
        )
    kept = [t for i, t in enumerate(vocab.tokens[: vocab.n_nonspecial]) if i not in spec.remove_ids]
    tokens, specials = _with_specials(kept + [CULL_TOKEN], vocab.specials)
    culled = Vocabulary(vocab.kind, tokens, specials, vocab.k, vocab.merges)
    remap = {old: culled._token_to_id.get(token, culled.cull_id) for old, token in enumerate(vocab.tokens)}
    return culled, remap


def remap_ids(ids, remap: dict[int, int]) -> np.ndarray:
    """Apply a cull remap to an id array; an id the remap does not cover is a DataError naming it."""
    ids = np.asarray(ids, dtype=np.int64)
    table = np.full(max(remap, default=-1) + 1, -1, dtype=np.int64)
    table[list(remap)] = list(remap.values())
    outside = (ids < 0) | (ids >= table.size)
    if outside.any():
        raise DataError(f"id {int(ids[outside][0])} is not in the vocabulary of {table.size} ids")
    out = table[ids]
    if (out < 0).any():
        raise DataError(f"id {int(ids[out < 0][0])} has no remap entry")
    return out
