"""Streaming FASTA ingestion.

Records are yielded one at a time. The file is read in fixed blocks cut
at their last newline, so peak memory stays bounded by the longest single
sequence plus one block. Lowercase bases are uppercased, CRLF endings are
tolerated, and gzip-compressed files are opened transparently when the
filename ends in ``.gz``. Any body byte outside A/C/G/T/N aborts with the
offending line number. The file is read once: a caller that needs its
digest passes a hashlib object, which then names the bytes that were
parsed, even when the path is a pipe.

Bases are validated once, by :class:`DnaSequence`. Only a record it
rejects is read again line by line, to name the offending line.
"""

from __future__ import annotations

import gzip
from typing import Iterator

from .core import _UPPER_OR_ZERO, DnaSequence
from .errors import DataError

_LF = ord("\n")
_BLOCK = 1 << 20


def read_fasta(path, digest=None) -> Iterator[DnaSequence]:
    """Yield validated sequences from a FASTA file in record order.

    ``digest``, a hashlib object, is updated with every byte read from the
    file: for ``.gz`` the compressed bytes, so it hashes the file as stored.
    """
    with open(path, "rb") as fh:
        if digest is not None:
            fh = _Hashed(fh, digest)
        if str(path).endswith(".gz"):
            fh = gzip.GzipFile(fileobj=fh, mode="rb")
        record_id: str | None = None
        body_line = 0  # line number of the current record's first body line
        parts: list[bytes] = []
        lineno = 1  # line number at ``pos``
        for block in _line_blocks(fh):
            pos = 0
            while pos < len(block):
                # ``pos`` is always at the start of a line
                if block.startswith(b">", pos):
                    if record_id is not None:
                        yield _record(path, record_id, parts, body_line)
                    end = block.find(b"\n", pos)
                    end = len(block) if end < 0 else end
                    header = block[pos + 1 : end].strip()
                    if not header:
                        raise DataError(f"{path}: empty FASTA header on line {lineno}")
                    record_id = header.split()[0].decode("ascii", errors="replace")
                    parts = []
                    lineno += 1
                    body_line = lineno
                    pos = end + 1
                    continue
                # the next line that starts with ">": a one-byte find, then a look at the byte before;
                # a ">" inside a line stays in the body, where _record names its line
                end = block.find(b">", pos)
                while end != -1 and block[end - 1] != _LF:
                    end = block.find(b">", end + 1)
                end = len(block) if end < 0 else end
                span = block[pos:end]
                if record_id is None:
                    if span.strip(b"\r\n"):
                        stray = next(i for i, line in enumerate(span.split(b"\n")) if line.rstrip(b"\r"))
                        raise DataError(f"{path}: sequence data before any header on line {lineno + stray}")
                else:
                    parts.append(span)
                lineno += span.count(b"\n")
                pos = end
        if record_id is not None:
            yield _record(path, record_id, parts, body_line)


class _Hashed:
    """A binary reader that feeds every byte it reads to ``digest``."""

    def __init__(self, fh, digest) -> None:
        self._fh = fh
        self._digest = digest

    def read(self, size: int = -1) -> bytes:
        data = self._fh.read(size)
        self._digest.update(data)
        return data


def _line_blocks(fh) -> Iterator[bytes]:
    """The file in blocks of whole lines; only the last may lack its newline."""
    pending: list[bytes] = []
    while block := fh.read(_BLOCK):
        cut = block.rfind(b"\n") + 1
        if cut:
            pending.append(block[:cut])
            yield b"".join(pending)
            pending = [block[cut:]]
        else:
            pending.append(block)
    tail = b"".join(pending)
    if tail:
        yield tail


def _record(path, record_id: str, parts: list[bytes], body_line: int) -> DnaSequence:
    """One record from the raw lines of its body, line ends included."""
    raw = b"".join(parts)
    eol = b"\r\n" if b"\r" in raw else b"\n"
    try:
        return DnaSequence(raw.replace(eol, b"").decode("ascii"), source_id=record_id)
    except (UnicodeDecodeError, DataError):
        pass
    # Rejected, or its line ends mix LF with CRLF: read it line by line,
    # which either names the offending line or strips the mixed endings.
    return DnaSequence(_body_lines(path, raw, body_line).decode("ascii"), source_id=record_id)


def _body_lines(path, raw: bytes, lineno: int) -> bytes:
    """The bases of body lines ``raw`` starting at line ``lineno``, checked one line at a time."""
    chunks: list[bytes] = []
    for lineno, line in enumerate(raw.split(b"\n"), lineno):
        line = line.rstrip(b"\r")
        if not line:
            continue
        body = line.translate(_UPPER_OR_ZERO)  # core's alphabet: a byte outside it reads 0
        bad = body.find(0)
        if bad >= 0:
            raise DataError(f"{path}: invalid symbol {line[bad : bad + 1].upper()!r} on line {lineno}")
        chunks.append(body)
    return b"".join(chunks)
