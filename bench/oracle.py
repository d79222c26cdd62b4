"""Independent reference checks for dnaprep outputs.

Nothing here imports dnaprep. The FASTA parser, the windowing, the k-mer
ids and the reverse-complement labels are written again from the file
formats and the README, one plain loop each, so a bug in the program
cannot hide behind the same bug in its check.

Each ``check_*`` function returns a list of problems; an empty list means
the output is right.
"""

from __future__ import annotations

import numpy as np

_DIGITS = str.maketrans("ACGT", "0123")
_COMPLEMENT_DIGITS = str.maketrans("0123", "3210")


def parse_fasta(path) -> list[tuple[str, str]]:
    """(record id, uppercase bases) for each record, in file order."""
    records: list[tuple[str, list[str]]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                records.append((line[1:].split()[0], []))
            elif line:
                records[-1][1].append(line.upper())
    return [(rid, "".join(parts)) for rid, parts in records]


def windows(records: list[tuple[str, str]], size: int) -> list[tuple[str, str]]:
    """(seq_id, bases) of each batch record, as the README names them."""
    out = []
    for rid, bases in records:
        if len(bases) <= size:
            out.append((rid, bases))
            continue
        for start in range(0, len(bases), size):
            piece = bases[start : start + size]
            out.append((f"{rid}:{start}-{start + len(piece)}", piece))
    return out


def _base4(value: int, width: int) -> str:
    digits = []
    for _ in range(width):
        digits.append("0123"[value % 4])
        value //= 4
    return "".join(reversed(digits))


class KmerOracle:
    """Reference ids for a complete k-mer vocabulary (id = base-4 value)."""

    def __init__(self, k: int, specials: dict[str, int]):
        self.k = k
        self.sp = specials
        self.special_ids = frozenset(specials.values())
        self.rc = [int(_base4(v, k).translate(_COMPLEMENT_DIGITS)[::-1], 4) for v in range(4**k)]

    def ids(self, bases: str) -> list[int]:
        k, unk = self.k, self.sp["UNK"]
        return [
            unk if "N" in bases[i : i + k] else int(bases[i : i + k].translate(_DIGITS), 4)
            for i in range(len(bases) - k + 1)
        ]

    def check_record(self, rec: dict, seq_id: str, bases: str, tasks: tuple[str, ...]) -> list[str]:
        """Compare one fixed-mode, as_unk, sentinel-wrapped batch record with its window."""
        sp, k = self.sp, self.k
        problems: list[str] = []
        if rec.get("seq_id") != seq_id:
            return [f"seq_id {rec.get('seq_id')!r} != {seq_id!r}"]
        orig = [sp["CLS"], *self.ids(bases), sp["SEP"]]
        n = len(orig)
        guiding = {entry["task"]: entry for entry in rec["guiding"]}
        if [entry["task"] for entry in rec["guiding"]] != list(tasks):
            problems.append(f"{seq_id}: guiding tasks {list(guiding)} != {list(tasks)}")
        if "sop" in tasks:
            label = guiding.get("sop", {}).get("label")
            body = [i for i, t in enumerate(orig) if t not in self.special_ids]
            if label == 1 and len(body) >= 2:
                vals = [orig[i] for i in body]
                half = len(vals) // 2
                for i, t in zip(body, vals[half:] + vals[:half]):
                    orig[i] = t
            elif label != 0:
                problems.append(f"{seq_id}: SOP label {label!r} on {len(body)} body tokens")
        special_pos = [i for i, t in enumerate(orig) if t in self.special_ids]
        m = rec["m"]
        if m != sorted(set(m)) or any(not 0 <= p < n or orig[p] in self.special_ids for p in m):
            problems.append(f"{seq_id}: targets {m} not sorted distinct non-special positions")
            return problems
        if list(rec["labels"].items()) != [(str(p), orig[p]) for p in m]:
            problems.append(f"{seq_id}: labels are not exactly the targets' original tokens")
        m_in = sorted(
            {q for p in m for q in range(max(0, p - k + 1), min(n, p + k)) if orig[q] not in self.special_ids}
        )
        if rec["m_in"] != m_in:
            problems.append(f"{seq_id}: m_in is not every non-special position within k-1 of a target")
        expect = list(orig)
        for q in m_in:
            expect[q] = sp["MASK"]
        if "mst" in tasks:
            for q in special_pos:
                expect[q] = sp["MASK"]
        if rec["input_ids"] != expect:
            bad = [q for q, (a, b) in enumerate(zip(rec["input_ids"], expect)) if a != b][:3]
            problems.append(f"{seq_id}: input_ids differ from the reference at {bad or 'length'}")
        in_mask = set(m_in)
        refs = {
            "ftm": sorted(set(m_in) - set(m)),
            "mst": special_pos,
            "csp": [q for q in range(n) if q not in in_mask and orig[q] not in self.special_ids],
        }
        for task, positions in refs.items():
            if task not in tasks:
                continue
            entry = guiding.get(task, {})
            want = [(str(q), self.rc[orig[q]] if task == "csp" else orig[q]) for q in positions]
            if entry.get("positions") != positions or list(entry.get("labels", {}).items()) != want:
                problems.append(f"{seq_id}: {task} targets differ from the reference")
        return problems


def kmer_ids_array(bases: str, k: int, unk: int) -> np.ndarray:
    """Reference overlapping k-mer ids of a whole record, for multi-Mbp input.

    Digits are read from a lookup table, a window holds an N when a
    length-k box filter over the N flags is non-zero, and the value is
    built by Horner's rule over the k offsets.
    """
    raw = np.frombuffer(bases.encode("ascii"), dtype=np.uint8)
    m = raw.size - k + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    digit = np.zeros(256, dtype=np.int64)
    digit[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4)
    codes = digit[raw]
    has_n = np.convolve(raw == ord("N"), np.ones(k, dtype=np.int64), mode="valid") > 0
    values = np.zeros(m, dtype=np.int64)
    for j in range(k):
        values = values * 4 + codes[j : j + m]
    values[has_n] = unk
    return values
