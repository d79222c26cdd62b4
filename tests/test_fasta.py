import gzip
import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnaprep.fasta as fasta
from dnaprep import DataError, DnaSequence, read_fasta


def write(tmp_path, text, name="in.fa"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


class TestReadFasta:
    def test_single_record(self, tmp_path):
        records = list(read_fasta(write(tmp_path, ">s1\nACGT\n")))
        assert len(records) == 1
        assert records[0].source_id == "s1"
        assert records[0].bases == "ACGT"

    def test_multiline_bodies_joined(self, tmp_path):
        records = list(read_fasta(write(tmp_path, ">s1\nAC\nGT\n>s2\nNN\n")))
        assert [(r.source_id, r.bases) for r in records] == [("s1", "ACGT"), ("s2", "NN")]

    def test_lowercase_uppercased(self, tmp_path):
        records = list(read_fasta(write(tmp_path, ">s\nacgt\n")))
        assert records[0].bases == "ACGT"

    def test_crlf_tolerated(self, tmp_path):
        records = list(read_fasta(write(tmp_path, ">s\r\nACGT\r\n")))
        assert records[0].bases == "ACGT"

    def test_bad_byte_names_line(self, tmp_path):
        path = write(tmp_path, ">s\nACGT\nAXGT\n")
        with pytest.raises(DataError, match="line 3"):
            list(read_fasta(path))

    def test_body_before_header(self, tmp_path):
        path = write(tmp_path, "ACGT\n")
        with pytest.raises(DataError, match="line 1"):
            list(read_fasta(path))

    def test_header_id_is_first_word(self, tmp_path):
        records = list(read_fasta(write(tmp_path, ">chr1 Homo sapiens\nACGT\n")))
        assert records[0].source_id == "chr1"

    def test_gzip_by_extension(self, tmp_path):
        path = tmp_path / "in.fa.gz"
        path.write_bytes(gzip.compress(b">g\nACGTACGT\n"))
        records = list(read_fasta(path))
        assert records[0].bases == "ACGTACGT"

    def test_empty_file(self, tmp_path):
        assert list(read_fasta(write(tmp_path, ""))) == []

    def test_record_without_body(self, tmp_path):
        records = list(read_fasta(write(tmp_path, ">empty\n>full\nAC\n")))
        assert [(r.source_id, r.bases) for r in records] == [("empty", ""), ("full", "AC")]

    def test_streaming_is_lazy(self, tmp_path):
        path = write(tmp_path, ">a\nAC\n>b\nGT\n")
        it = read_fasta(path)
        first = next(it)
        assert first.source_id == "a"


def line_reader(path):
    """The reader before block reading: one line at a time, each body line
    uppercased and checked on its own, then checked again as a DnaSequence."""
    valid = b"ACGTN"
    with open(path, "rb") as fh:
        record_id = None
        chunks = []
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip(b"\r\n")
            if not line:
                continue
            if line.startswith(b">"):
                if record_id is not None:
                    yield DnaSequence(b"".join(chunks).decode("ascii"), source_id=record_id)
                header = line[1:].strip()
                if not header:
                    raise DataError(f"{path}: empty FASTA header on line {lineno}")
                record_id = header.split()[0].decode("ascii", errors="replace")
                chunks = []
            else:
                if record_id is None:
                    raise DataError(f"{path}: sequence data before any header on line {lineno}")
                body = line.upper()
                if body.translate(None, delete=valid):
                    bad = next(bytes([b]) for b in body if b not in valid)
                    raise DataError(f"{path}: invalid symbol {bad!r} on line {lineno}")
                chunks.append(body)
        if record_id is not None:
            yield DnaSequence(b"".join(chunks).decode("ascii"), source_id=record_id)


def outcome(reader, path):
    """The (id, bases) pairs a reader yields, and its error message if it stops on one."""
    records = []
    try:
        for seq in reader(path):
            records.append((seq.source_id, seq.bases))
    except DataError as exc:
        return records, str(exc)
    return records, None


_HEADER = st.builds(
    lambda name, desc: b">" + name.encode() + desc,
    st.text(alphabet="abcXY019_.|", min_size=1, max_size=6),
    st.sampled_from([b"", b" desc", b"\tpos=1 x", b"  "]),
)
_BODY = st.text(alphabet="ACGTNacgtn", max_size=14).map(str.encode)  # empty: a blank line
_BAD = st.sampled_from([b"ACXT", b"AC\rGT", b"AC\xc3\xa9T", b"ac gt", b">", b"> \t", b"\r\rA", b"-"])
_EOL = st.sampled_from([b"\n", b"\r\n", b"\r\r\n"])


def fasta_text(draw, lines):
    """``lines`` with drawn line ends; the last line may have none."""
    eols = draw(st.lists(_EOL, min_size=len(lines), max_size=len(lines)))
    text = b"".join(line + eol for line, eol in zip(lines, eols))
    return text[: -len(eols[-1])] if lines and draw(st.booleans()) else text


@st.composite
def valid_fasta(draw):
    """Blank lines, then records: many tiny ones, empty ones, bodies of mixed case."""
    lines = [b""] * draw(st.integers(0, 2)) + [draw(_HEADER)]
    lines += draw(st.lists(st.one_of(_HEADER, _BODY, _BODY), max_size=60))
    return fasta_text(draw, lines)


@st.composite
def broken_fasta(draw):
    """A valid text with one bad line put anywhere, even before the first header."""
    lines = [draw(_HEADER)] + draw(st.lists(st.one_of(_HEADER, _BODY, _BODY), max_size=40))
    lines.insert(draw(st.integers(0, len(lines))), draw(_BAD))
    return fasta_text(draw, lines)


class TestBlockReaderAgainstLineReader:
    """Blocks of a few bytes put header and body lines across block edges."""

    @given(valid_fasta(), st.sampled_from([1, 2, 3, 5, 8, 64, fasta._BLOCK]))
    @settings(max_examples=300, deadline=None)
    def test_same_records(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("fa") / "in.fa"
        path.write_bytes(text)
        digest = hashlib.sha256()
        with mock.patch.object(fasta, "_BLOCK", block):
            got = outcome(read_fasta, path)
            hashed = outcome(lambda p: read_fasta(p, digest=digest), path)
        assert got == outcome(line_reader, path)
        assert got[1] is None
        assert hashed == got
        assert digest.hexdigest() == hashlib.sha256(text).hexdigest()

    @given(broken_fasta(), st.sampled_from([1, 2, 3, 5, 8, 64, fasta._BLOCK]))
    @settings(max_examples=300, deadline=None)
    def test_same_error_and_line(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("fa") / "in.fa"
        path.write_bytes(text)
        with mock.patch.object(fasta, "_BLOCK", block):
            got = outcome(read_fasta, path)
            hashed = outcome(lambda p: read_fasta(p, digest=hashlib.sha256()), path)
        assert got == outcome(line_reader, path)
        assert got[1] is not None
        assert hashed == got

    @pytest.mark.parametrize(
        "text, message",
        [
            (b">s\nACGT\nAC\rGT\n", "invalid symbol b'\\r' on line 3"),
            (b">s\r\nACGT\r\nAC\xc3\xa9T\r\n", "invalid symbol b'\\xc3' on line 3"),
            (b">a\nAC\n>\nGT\n", "empty FASTA header on line 3"),
            (b"\n\r\nACGT\n>a\nAC\n", "sequence data before any header on line 3"),
            (b">a\nAC\n>b\nAXGT\n", "invalid symbol b'X' on line 4"),
            # a ">" that does not start a line is a bad base on its own line, not a header
            (b">a\nAC>GT\n>b\nGT\n", "invalid symbol b'>' on line 2"),
            (b">a\nAC\nACGT>\n>b\nGT\n", "invalid symbol b'>' on line 3"),
            (b">a\nAC\nGT\n\nA>>C\n", "invalid symbol b'>' on line 5"),
        ],
    )
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "in.fa"
        path.write_bytes(text)
        for block in (2, fasta._BLOCK):
            for digest in (None, hashlib.sha256()):
                with mock.patch.object(fasta, "_BLOCK", block), pytest.raises(DataError) as exc:
                    list(read_fasta(path, digest=digest))
                assert str(exc.value) == f"{path}: {message}"
