import dataclasses
import gzip
import hashlib
import json
import os
import re
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnaprep import (
    DnaSequence,
    MaskConfig,
    PipelineConfig,
    build_kmer_vocab,
    iter_windows,
    run_pipeline,
    select_targets,
)
from dnaprep import core
from dnaprep.cli import main


@pytest.fixture
def vocab6_path(tmp_path):
    path = tmp_path / "vocab6.json"
    build_kmer_vocab(6).save(path)
    return str(path)


@pytest.fixture
def vocab3_path(tmp_path):
    path = tmp_path / "vocab3.json"
    build_kmer_vocab(3).save(path)
    return str(path)


def write_fasta(tmp_path, text, name="in.fa"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def without_special(obj, name):
    """A vocabulary file's JSON ``obj`` with the special token ``name`` left out."""
    tokens = [token for token in obj["tokens"] if token != f"[{name}]"]
    specials = {other: tokens.index(f"[{other}]") for other in obj["specials"] if other != name}
    return {**obj, "tokens": tokens, "specials": specials}


def _raise_no_space(*args, **kwargs):
    raise OSError(28, "No space left on device")


def find_seed_selecting(vocab, n_tokens, want, p=0.11, max_seed=20000):
    """Smallest master seed whose ordinal-0 draw picks exactly ``want``."""
    toks = np.array(
        [vocab.special_id("CLS")] + list(range(1, n_tokens - 1)) + [vocab.special_id("SEP")]
    )
    for seed in range(max_seed):
        cfg = MaskConfig.for_vocab(vocab, p=p, master_seed=seed)
        if set(select_targets(toks, cfg, 0).tolist()) == want:
            return seed
    raise AssertionError("no seed found")


class TestWindows:
    def test_short_sequence_untouched(self):
        seqs = [DnaSequence("ACGT", "s")]
        assert [w.source_id for w in iter_windows(seqs, 10)] == ["s"]

    def test_long_sequence_split_with_spans(self):
        seqs = [DnaSequence("A" * 25, "s")]
        got = list(iter_windows(seqs, 10))
        assert [w.source_id for w in got] == ["s:0-10", "s:10-20", "s:20-25"]
        assert "".join(w.bases for w in got) == "A" * 25

    @given(st.text(alphabet="ACGTNacgtn", max_size=300), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_each_window_is_the_records_slice_unchecked(self, text, window):
        record = DnaSequence(text, "r")
        with mock.patch.object(core, "_validate_bases", side_effect=AssertionError("window bases checked again")):
            got = list(iter_windows([record], window))
        n = len(record)
        if n <= window:
            assert got == [record] and got[0] is record
            return
        want = [DnaSequence(record.bases[s : s + window], f"r:{s}-{min(s + window, n)}") for s in range(0, n, window)]
        assert got == want
        assert all(type(w) is DnaSequence and hash(w) == hash(v) for w, v in zip(got, want))

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_is_rejected_before_any_sequence_is_read(self, window):
        from dnaprep import ConfigError

        def unread():
            raise AssertionError("a sequence was read")
            yield

        with pytest.raises(ConfigError, match=f"window must be >= 1, got {window}"):
            iter_windows(unread(), window)


class TestRunPipeline:
    def test_identical_invocations_identical_digests(self, tmp_path, vocab3_path):
        fasta = write_fasta(tmp_path, ">a\nACGTACGTTGCA\n>b\nTTGCAACG\n")
        digests = []
        for name in ("one.jsonl", "two.jsonl"):
            cfg = PipelineConfig(
                vocab_path=vocab3_path,
                fasta_path=fasta,
                out_path=str(tmp_path / name),
                master_seed=11,
            )
            digests.append(run_pipeline(cfg).output_digest)
        assert digests[0] == digests[1]

    def test_thread_count_invariance(self, tmp_path, vocab3_path):
        fasta = write_fasta(tmp_path, "".join(f">s{i}\nACGTACGTTGCAACGGATCC\n" for i in range(40)))
        outs = []
        for threads, name in ((1, "t1.jsonl"), (4, "t4.jsonl")):
            cfg = PipelineConfig(
                vocab_path=vocab3_path,
                fasta_path=fasta,
                out_path=str(tmp_path / name),
                master_seed=3,
                threads=threads,
                guiding=("ftm", "mst", "sop", "csp"),
            )
            outs.append(run_pipeline(cfg).output_digest)
        assert outs[0] == outs[1]

    def test_empty_fasta(self, tmp_path, vocab3_path):
        fasta = write_fasta(tmp_path, "")
        cfg = PipelineConfig(
            vocab_path=vocab3_path, fasta_path=fasta, out_path=str(tmp_path / "out.jsonl")
        )
        result = run_pipeline(cfg)
        assert result.n_records == 0
        assert (tmp_path / "out.jsonl").read_bytes() == b""
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["outputs"]["records"] == 0
        assert manifest["outputs"]["batch"] == hashlib.sha256(b"").hexdigest()

    def test_manifest_reproducibility_fields(self, tmp_path, vocab3_path):
        fasta = write_fasta(tmp_path, ">a\nACGTACGT\n")
        cfg = PipelineConfig(
            vocab_path=vocab3_path, fasta_path=fasta, out_path=str(tmp_path / "out.jsonl")
        )
        result = run_pipeline(cfg)
        manifest = json.loads(Path(result.manifest_path).read_text())
        assert manifest["tool"] == "dnaprep"
        assert manifest["config"]["master_seed"] == 0
        with open(fasta, "rb") as fh:
            assert manifest["inputs"]["fasta"] == hashlib.sha256(fh.read()).hexdigest()
        assert manifest["outputs"]["batch"] == result.output_digest
        # hashed as written: the digest of the bytes that landed in the file
        assert result.output_digest == hashlib.sha256((tmp_path / "out.jsonl").read_bytes()).hexdigest()

    def test_manifest_vocab_digest_names_the_vocabulary_used(self, tmp_path, vocab3_path):
        """Rewriting the vocabulary file mid-run leaves the manifest digest on the bytes parsed."""
        used = Path(vocab3_path).read_bytes()

        def sequences():
            yield DnaSequence("ACGTACGT", "a")
            build_kmer_vocab(4).save(vocab3_path)
            yield DnaSequence("TTGCA", "b")

        cfg = PipelineConfig(
            vocab_path=vocab3_path, fasta_path=str(tmp_path / "absent.fa"), out_path=str(tmp_path / "out.jsonl")
        )
        result = run_pipeline(cfg, sequences())
        assert Path(vocab3_path).read_bytes() != used
        assert result.manifest["inputs"]["vocab"] == hashlib.sha256(used).hexdigest()

    def test_manifest_names_no_fasta_when_sequences_are_passed(self, tmp_path, vocab3_path):
        """An unrelated file at fasta_path contributes no byte, so the manifest names no FASTA."""
        fasta = write_fasta(tmp_path, ">other\nTTTTTTTTTT\n")
        cfg = PipelineConfig(vocab_path=vocab3_path, fasta_path=fasta, out_path=str(tmp_path / "out.jsonl"))
        passed = run_pipeline(cfg, [DnaSequence("ACGTACGT", "a")])
        assert passed.manifest["inputs"]["fasta"] is None
        assert json.loads(Path(passed.manifest_path).read_text())["inputs"]["fasta"] is None
        read = run_pipeline(cfg)
        assert read.manifest["inputs"]["fasta"] == hashlib.sha256(Path(fasta).read_bytes()).hexdigest()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_manifest_fasta_digest_of_a_pipe(self, tmp_path, vocab3_path):
        """A pipe can be read only once: the digest must come from the bytes the run parsed."""
        text = b">a\nACGTACGTTGCA\n>b\nTTGCAACG\n"
        r, w = os.pipe()

        def feed():
            with open(w, "wb") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            cfg = PipelineConfig(vocab_path=vocab3_path, fasta_path=f"/dev/fd/{r}", out_path=str(tmp_path / "o.jsonl"))
            result = run_pipeline(cfg)
        finally:
            writer.join()
            os.close(r)
        assert result.n_records == 2
        assert result.manifest["inputs"]["fasta"] == hashlib.sha256(text).hexdigest()

    def test_manifest_fasta_digest_of_a_file_replaced_mid_run(self, tmp_path, vocab3_path, monkeypatch):
        import dnaprep.fasta

        fasta = write_fasta(tmp_path, ">a\nACGTACGTTGCA\n>b\nTTGCAACG\n")
        read = Path(fasta).read_bytes()
        other = write_fasta(tmp_path, ">c\nGGGG\n", name="other.fa")
        real = dnaprep.fasta.read_fasta

        def replacing(*args, **kwargs):
            records = real(*args, **kwargs)
            yield next(records)
            os.replace(other, fasta)
            yield from records

        monkeypatch.setattr(dnaprep.fasta, "read_fasta", replacing)
        cfg = PipelineConfig(vocab_path=vocab3_path, fasta_path=fasta, out_path=str(tmp_path / "o.jsonl"))
        result = run_pipeline(cfg)
        assert Path(fasta).read_bytes() != read
        assert result.n_records == 2
        assert result.manifest["inputs"]["fasta"] == hashlib.sha256(read).hexdigest()

    @pytest.mark.parametrize("members", [1, 2])
    def test_manifest_fasta_digest_of_a_gz_file_is_of_its_stored_bytes(self, tmp_path, vocab3_path, members):
        from dnaprep import read_fasta

        texts = [b">a\nACGTACGTTGCA\n", b">b\nTTGCAACG\n"]
        stored = b"".join(gzip.compress(text) for text in (texts if members == 2 else [b"".join(texts)]))
        fasta = tmp_path / "in.fa.gz"
        fasta.write_bytes(stored)
        digest = hashlib.sha256()
        assert [s.source_id for s in read_fasta(fasta, digest=digest)] == ["a", "b"]
        assert digest.hexdigest() == hashlib.sha256(stored).hexdigest()
        cfg = PipelineConfig(vocab_path=vocab3_path, fasta_path=fasta, out_path=str(tmp_path / "o.jsonl"))
        assert run_pipeline(cfg).manifest["inputs"]["fasta"] == digest.hexdigest()

    def test_fixed_vs_flawed_crafted_diff(self, tmp_path, vocab6_path):
        # 10 bases -> 5 body tokens at k=6; a lone target at position 2
        # makes both modes mask the whole body, so the outputs differ
        # exactly at the wrongly masked [CLS] and in the label sets.
        vocab = build_kmer_vocab(6)
        seed = find_seed_selecting(vocab, n_tokens=7, want={2})
        fasta = write_fasta(tmp_path, ">x\nACGTACGTAC\n")
        records = {}
        for mode in ("fixed", "flawed"):
            cfg = PipelineConfig(
                vocab_path=vocab6_path,
                fasta_path=fasta,
                out_path=str(tmp_path / f"{mode}.jsonl"),
                mode=mode,
                master_seed=seed,
            )
            run_pipeline(cfg)
            records[mode] = read_jsonl(tmp_path / f"{mode}.jsonl")[0]
        fixed, flawed = records["fixed"], records["flawed"]
        assert fixed["m"] == flawed["m"] == [2]
        diff = [
            i
            for i, (a, b) in enumerate(zip(fixed["input_ids"], flawed["input_ids"]))
            if a != b
        ]
        assert diff == [0]  # only [CLS] differs
        assert flawed["input_ids"][0] == vocab.mask_id
        assert set(flawed["m_in"]) - set(fixed["m_in"]) == {0}
        assert sorted(map(int, fixed["labels"])) == [2]
        assert sorted(map(int, flawed["labels"])) == [0, 1, 2, 3, 4, 5]

    def test_guiding_payload(self, tmp_path, vocab3_path):
        fasta = write_fasta(tmp_path, ">a\nACGTACGTTGCA\n")
        cfg = PipelineConfig(
            vocab_path=vocab3_path,
            fasta_path=fasta,
            out_path=str(tmp_path / "g.jsonl"),
            guiding=("ftm", "mst", "sop", "csp"),
            master_seed=5,
        )
        run_pipeline(cfg)
        record = read_jsonl(tmp_path / "g.jsonl")[0]
        tasks = [entry["task"] for entry in record["guiding"]]
        assert tasks == ["ftm", "mst", "sop", "csp"]
        vocab = build_kmer_vocab(3)
        assert record["input_ids"][0] == vocab.mask_id  # MST masked [CLS]
        sop = record["guiding"][2]
        assert sop["label"] in (0, 1)
        csp = record["guiding"][3]
        assert not set(csp["positions"]) & set(record["m_in"])

    def test_ftm_requires_overlap(self, tmp_path):
        word_path = str(tmp_path / "word.json")
        build_kmer_vocab(3, kind="word").save(word_path)
        fasta = write_fasta(tmp_path, ">a\nACGTAC\n")
        cfg = PipelineConfig(
            vocab_path=word_path,
            fasta_path=fasta,
            out_path=str(tmp_path / "x.jsonl"),
            guiding=("ftm",),
        )
        from dnaprep import ConfigError

        with pytest.raises(ConfigError):
            run_pipeline(cfg)


class TestCli:
    def test_build_vocab_and_tokenize(self, tmp_path):
        vocab_path = str(tmp_path / "v.json")
        assert main(["build-vocab", "--kind", "kmer", "--k", "3", "--out", vocab_path]) == 0
        fasta = write_fasta(tmp_path, ">a\nACGTAC\n")
        out = str(tmp_path / "tok.jsonl")
        assert main(["tokenize", "--vocab", vocab_path, "--fasta", fasta, "--out", out]) == 0
        vocab = build_kmer_vocab(3)
        record = read_jsonl(out)[0]
        assert [vocab.tokens[i] for i in record["ids"]] == ["ACG", "CGT", "GTA", "TAC"]

    def test_build_vocab_bpe(self, tmp_path):
        fasta = write_fasta(tmp_path, ">a\n" + "ACGTACGT" * 40 + "\n")
        out = str(tmp_path / "bpe.json")
        assert main(["build-vocab", "--kind", "bpe", "--fasta", fasta, "--target-size", "8", "--out", out]) == 0
        from dnaprep import Vocabulary

        vocab = Vocabulary.load(out)
        assert vocab.kind == "bpe" and vocab.n_nonspecial == 8

    def test_mask_and_leakage_batch(self, tmp_path, vocab3_path, capsys):
        fasta = write_fasta(tmp_path, ">a\nACGTACGTTGCAACGT\n")
        out = str(tmp_path / "b.jsonl")
        assert main([
            "mask", "--vocab", vocab3_path, "--fasta", fasta, "--out", out, "--p", "0.5", "--seed", "4",
        ]) == 0
        capsys.readouterr()
        assert main(["leakage", "--k", "3", "--batch", out]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(lines[0])
        assert set(payload) == {"seq_id", "leakage_percent"}

    @pytest.mark.parametrize("field,bad", [
        ("m", [1, 9]), ("m", [-1]), ("m_in", [0, 9]), ("m_in", [-2]), ("labels", {"9": 5}), ("labels", {"-1": 5}),
    ])
    def test_leakage_batch_rejects_positions_outside_the_record(self, tmp_path, capsys, field, bad):
        record = {"seq_id": "r", "input_ids": [2, 4, 4, 4, 3], "m_in": [0, 1, 2], "m": [1], "labels": {"1": 7}, "guiding": []}
        record[field] = bad
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert main(["leakage", "--k", "3", "--batch", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not an index" in captured.err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"labels": None}, "record 'r': labels must be an object of position: id"),
            ({"m": None}, "record 'r': m must be a list of positions"),
            ({"m_in": None}, "record 'r': m_in must be a list of positions"),
            ({"input_ids": None}, "record 'r': input_ids must be a list of integer ids"),
            ({"input_ids": [2, None, 4, 4, 3]}, "record 'r': input_ids must be a list of integer ids"),
            ({"labels": {"\u00b2": 7}}, "record 'r': labels position '\u00b2' is not an index of its 5 input ids"),
            ({"labels": {"--3": 7}}, "record 'r': labels position '--3' is not an index of its 5 input ids"),
        ],
        ids=["no_labels", "no_m", "no_m_in", "no_input_ids", "null_id", "superscript_key", "double_minus_key"],
    )
    def test_leakage_batch_rejects_a_malformed_record(self, tmp_path, capsys, change, message):
        record = {"seq_id": "r", "input_ids": [2, 4, 4, 4, 3], "m_in": [0, 1, 2], "m": [1], "labels": {"1": 7}}
        record.update(change)
        record = {key: value for key, value in record.items() if value is not None}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert main(["leakage", "--k", "3", "--batch", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "DataError", "message": message}

    def test_leakage_batch_rejects_a_line_that_is_not_a_record(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        assert main(["leakage", "--k", "3", "--batch", str(path)]) == 2
        assert "not a record" in json.loads(capsys.readouterr().err)["message"]

    def test_leakage_batch_names_the_line_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq_id": "a", "input_ids": [1], "m": [], "m_in": [], "labels": {}}\n\n')
        assert main(["leakage", "--k", "3", "--batch", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == '{"seq_id":"a","leakage_percent":0.0}\n'
        err = json.loads(captured.err)
        assert err["error"] == "DataError"
        assert err["message"].startswith(f"{path}: line 2: not a JSON record: Expecting value")

    def test_leakage_closed_form(self, capsys):
        assert main(["leakage", "--k", "6", "--m", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio_percent"] == pytest.approx(100 * 5 / 6)

    def test_guide_subcommand(self, tmp_path, vocab3_path, capsys):
        fasta = write_fasta(tmp_path, ">a\nACGTACGTTGCA\n")
        out = str(tmp_path / "g.jsonl")
        assert main([
            "guide", "--vocab", vocab3_path, "--fasta", fasta, "--out", out, "--tasks", "csp,mst",
        ]) == 0
        record = read_jsonl(out)[0]
        assert [e["task"] for e in record["guiding"]] == ["mst", "csp"]

    def test_vocab_stats_and_cull(self, tmp_path, vocab3_path, capsys):
        fasta = write_fasta(tmp_path, ">a\nACGTACGTTGCAACGT\n")
        stats_out = str(tmp_path / "stats.csv")
        assert main(["vocab-stats", "--vocab", vocab3_path, "--fasta", fasta, "--out", stats_out]) == 0
        with open(stats_out) as fh:
            header = fh.readline().strip()
        assert header.startswith("token_id,token,frequency")
        culled_out = str(tmp_path / "culled.json")
        assert main(["cull", "--vocab", vocab3_path, "--remove", "0,1,2", "--out", culled_out]) == 0
        from dnaprep import Vocabulary

        culled = Vocabulary.load(culled_out)
        assert culled.cull_id is not None
        remap = json.loads(Path(culled_out + ".remap.json").read_text())
        assert remap["0"] == culled.cull_id

    def test_cull_bound_exit_code(self, tmp_path, vocab3_path, capsys):
        ids = ",".join(str(i) for i in range(7))
        code = main(["cull", "--vocab", vocab3_path, "--remove", ids, "--out", str(tmp_path / "c.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "ConstraintError"

    def test_benchstats_cli(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(
            "dataset_id,variant,seed,metric_value\n"
            + "\n".join(
                f"d{i},pretrained,{s},{70 + i + s * 0.01}" for i in range(4) for s in range(3)
            )
            + "\n"
            + "\n".join(f"d{i},baseline:cnn,0,{60 + i}" for i in range(4))
            + "\n"
        )
        scaling = tmp_path / "scaling.csv"
        scaling.write_text(
            "dataset_id,pretrain_size,metric_value\n"
            + "\n".join(f"d{i},{10**x},{50 + x}" for i in range(4) for x in (1, 2, 3))
            + "\n"
        )
        report_out = str(tmp_path / "report.json")
        code = main([
            "benchstats", "--runs", str(runs), "--scaling", str(scaling), "--out", report_out,
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "selected:" in table
        payload = json.loads(Path(report_out).read_text())
        assert set(payload["datasets"]) == {"d0", "d1", "d2", "d3"}

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mask", "--vocab"])  # missing value
        assert exc.value.code == 1

    def test_threads_flag_is_refused(self, tmp_path, vocab3_path, capsys):
        """mask and guide run windows on one thread, so they take no thread count."""
        fasta = write_fasta(tmp_path, ">a\nACGTACGTTGCA\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["mask", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(out_dir / "o"), "--threads", "2"])
        assert exc.value.code == 1
        assert "--threads" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_data_error_exit_2(self, tmp_path, vocab3_path, capsys):
        fasta = write_fasta(tmp_path, ">a\nAXGT\n")
        code = main(["mask", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(tmp_path / "o.jsonl")])
        assert code == 2

    def test_env_seed_override(self, tmp_path, vocab3_path, monkeypatch):
        fasta = write_fasta(tmp_path, ">a\nACGTACGTTGCA\n")
        out_a = str(tmp_path / "a.jsonl")
        out_b = str(tmp_path / "b.jsonl")
        monkeypatch.setenv("DNAPREP_SEED", "777")
        assert main(["mask", "--vocab", vocab3_path, "--fasta", fasta, "--out", out_a]) == 0
        monkeypatch.delenv("DNAPREP_SEED")
        assert main(["mask", "--vocab", vocab3_path, "--fasta", fasta, "--out", out_b, "--seed", "777"]) == 0
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()

    @pytest.mark.parametrize(
        "fasta_text", [">a\nACGTACGTTGCA\n>b\nACGTXACGT\n", None], ids=["bad_symbol", "missing_fasta"]
    )
    def test_failed_run_leaves_no_output(self, tmp_path, vocab3_path, fasta_text, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        fasta = write_fasta(tmp_path, fasta_text) if fasta_text else str(tmp_path / "absent.fa")
        out = str(out_dir / "out.jsonl")
        code = main(["guide", "--vocab", vocab3_path, "--fasta", fasta, "--out", out, "--tasks", "ftm,csp"])
        assert code == 2
        assert list(out_dir.iterdir()) == []

    def test_failed_run_keeps_earlier_output(self, tmp_path, vocab3_path, capsys):
        out = str(tmp_path / "out.jsonl")
        good = write_fasta(tmp_path, ">a\nACGTACGTTGCA\n", name="good.fa")
        assert main(["mask", "--vocab", vocab3_path, "--fasta", good, "--out", out]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.glob("out.jsonl*")}
        bad = write_fasta(tmp_path, ">a\nACGTXACGT\n", name="bad.fa")
        assert main(["mask", "--vocab", vocab3_path, "--fasta", bad, "--out", out]) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.glob("out.jsonl*")} == before

    def test_failed_tokenize_leaves_no_output_and_keeps_earlier(self, tmp_path, vocab3_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "tok.jsonl"
        args = ["tokenize", "--vocab", vocab3_path, "--out", str(out), "--fasta"]
        bad = write_fasta(tmp_path, ">a\nACGTACGT\n>b\nACXT\n", name="bad.fa")
        assert main(args + [bad]) == 2
        assert list(out_dir.iterdir()) == []
        good = write_fasta(tmp_path, ">a\nACGTACGT\n", name="good.fa")
        assert main(args + [good]) == 0
        before = out.read_bytes()
        assert main(args + [bad]) == 2
        assert list(out_dir.iterdir()) == [out] and out.read_bytes() == before

    def test_failed_cull_leaves_no_output_and_keeps_earlier(self, tmp_path, vocab3_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "c.json"
        blocker = out_dir / "c.json.remap.json"
        blocker.mkdir()  # the remap cannot be renamed onto a directory
        args = ["cull", "--vocab", vocab3_path, "--remove", "0,1,2", "--out", str(out)]
        assert main(args) == 2
        assert list(out_dir.iterdir()) == [blocker]
        blocker.rmdir()
        assert main(args) == 0
        before = out.read_bytes()
        (out_dir / "c.json.remap.json").unlink()
        blocker.mkdir()
        assert main(args[:-3] + ["3,4,5", "--out", str(out)]) == 2
        assert sorted(out_dir.iterdir()) == [out, blocker] and out.read_bytes() == before

    def _keeps_earlier_output(self, monkeypatch, args, out, break_write):
        """Run ``args`` once, then again with ``break_write`` applied: the second
        run must exit 2 and leave the first output as the only file."""
        assert main(args) == 0
        before = out.read_bytes()
        break_write(monkeypatch)
        assert main(args) == 2
        assert list(out.parent.iterdir()) == [out] and out.read_bytes() == before

    def test_failed_build_vocab_keeps_earlier(self, tmp_path, monkeypatch, capsys):
        from dnaprep import Vocabulary

        def break_write(mp):
            # Vocabulary.save opens its file, then asks for the bytes
            mp.setattr(Vocabulary, "to_json_bytes", _raise_no_space)

        out = tmp_path / "out" / "v.json"
        out.parent.mkdir()
        args = ["build-vocab", "--kind", "kmer", "--k", "3", "--out", str(out)]
        self._keeps_earlier_output(monkeypatch, args, out, break_write)

    def test_failed_vocab_stats_keeps_earlier(self, tmp_path, vocab3_path, monkeypatch, capsys):
        from dnaprep import vocabstats

        def half_then_fail(path, *args, **kwargs):
            # write_stats_csv writes its table in one call: half of it reaches the file, then the disk is full
            fh = open(path, *args, **kwargs)
            write = fh.write

            def half(text):
                write(text[: len(text) // 2])
                fh.flush()
                _raise_no_space()

            fh.write = half
            return fh

        out = tmp_path / "out" / "stats.csv"
        out.parent.mkdir()
        fasta = write_fasta(tmp_path, ">s\nACGTACGTTGCA\n")
        args = ["vocab-stats", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(out)]
        self._keeps_earlier_output(
            monkeypatch, args, out, lambda mp: mp.setattr(vocabstats, "open", half_then_fail, raising=False)
        )

    def test_failed_benchstats_keeps_earlier(self, tmp_path, monkeypatch, capsys):
        from dnaprep.benchstats import CriteriaReport

        runs = tmp_path / "runs.csv"
        runs.write_text(
            "dataset_id,variant,seed,metric_value\n"
            + "".join(f"d{i},pretrained,{s},{70 + i + s * 0.01}\n" for i in range(4) for s in range(3))
            + "".join(f"d{i},baseline:cnn,0,{60 + i}\n" for i in range(4))
        )
        out = tmp_path / "out" / "report.json"
        out.parent.mkdir()
        args = ["benchstats", "--runs", str(runs), "--out", str(out)]
        # the report is rendered after the output file is opened
        self._keeps_earlier_output(
            monkeypatch, args, out, lambda mp: mp.setattr(CriteriaReport, "to_json", _raise_no_space)
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("token_id,accuracy\n5\n", "line 2: expected token_id,accuracy, got '5'"),
            ("token_id,accuracy\n0,0.5\n5,nan\n", "line 3: accuracy 'nan' is not finite"),
            ("0,0.5\n5, inf\n", "line 2: accuracy 'inf' is not finite"),
            ("token_id,accuracy\n,0.5\n", "line 2: expected token_id,accuracy, got ',0.5'"),
            ("0,0.5\n , \n0,0.9\n", "line 3: token id 0 appears twice"),
            ("999,0.5\n999,0.6\n", "line 2: token id 999 appears twice"),
            ("0,0.5\ntoken_id,accuracy\n", "line 2: expected token_id,accuracy, got 'token_id,accuracy'"),
        ],
        ids=["one_field", "nan", "inf", "empty_id", "repeated_id", "repeated_unknown_id", "late_header"],
    )
    def test_malformed_accuracy_csv_is_a_data_error(self, tmp_path, vocab3_path, capsys, text, message):
        accuracy = tmp_path / "acc.csv"
        accuracy.write_text(text)
        fasta = write_fasta(tmp_path, ">s\nACGTACGT\n")
        out = tmp_path / "stats.csv"
        args = ["vocab-stats", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(out)]
        assert main(args + ["--accuracy", str(accuracy)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DataError", "message": f"{accuracy}: {message}"}
        assert not out.exists()

    def test_vocab_stats_writes_no_negative_zero_entropy(self, tmp_path, vocab3_path):
        # every 3-mer of ACGTACGT has one successor, so entropy 0
        fasta = write_fasta(tmp_path, ">s\nACGTACGT\n")
        out = tmp_path / "stats.csv"
        assert main(["vocab-stats", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(out)]) == 0
        rows = {row[1]: row for row in (line.split(",") for line in out.read_text().splitlines()[1:])}
        assert [rows[t][4] for t in ("ACG", "CGT", "GTA", "TAC")] == ["0"] * 4
        assert not any(row[4] == "-0" for row in rows.values())

    @pytest.mark.parametrize("name", ["DNAPREP_SEED"])
    def test_malformed_env_value_is_a_usage_error(self, tmp_path, vocab3_path, monkeypatch, capsys, name):
        fasta = write_fasta(tmp_path, ">a\nACGTACGTTGCA\n")
        monkeypatch.setenv(name, "abc")
        code = main(["mask", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-3")], ids=["flag", "env"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, vocab3_path, monkeypatch, capsys, flag, env):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if env is not None:
            monkeypatch.setenv("DNAPREP_SEED", env)
        seed = flag[1] if flag else env
        # the FASTA is unreadable: a run that got as far as reading would exit 2
        fasta = str(tmp_path / "absent.fa")
        code = main(["guide", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(out_dir / "o.jsonl"), *flag])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": f"master seed must be >= 0, got {seed}",
        }
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, reshape, code, error, message",
        [
            (["mask"], lambda obj: {**obj, "kind": None}, 2, "DataError", "vocabulary 'kind' must be one of kmer, word, bpe"),
            (["mask"], lambda obj: {k: obj[k] for k in obj.keys() - {"kind"}}, 2, "DataError", "vocabulary file has no 'kind'"),
            (["mask"], lambda obj: [], 2, "DataError", "not a vocabulary file: a JSON list, not an object"),
            (["mask"], lambda obj: without_special(obj, "MASK"), 1, "ConfigError", "masking requires a MASK special token"),
            (
                ["tokenize", "--sentinels"],
                lambda obj: without_special(obj, "CLS"),
                1,
                "ConfigError",
                "sentinels require CLS and SEP special tokens",
            ),
        ],
        ids=["null_kind", "no_kind", "array", "no_mask", "no_cls"],
    )
    def test_vocabulary_shape_and_roles_fail_before_any_input(self, tmp_path, capsys, argv, reshape, code, error, message):
        vocab_path = tmp_path / "v.json"
        vocab_path.write_text(json.dumps(reshape(json.loads(build_kmer_vocab(3).to_json_bytes()))))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        # the FASTA is missing: a run that got as far as reading it would fail on that
        fasta = str(tmp_path / "absent.fa")
        assert main([*argv, "--vocab", str(vocab_path), "--fasta", fasta, "--out", str(out_dir / "o")]) == code
        assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("prob", ["2", "-0.5", "nan"])
    @pytest.mark.parametrize("fasta_text", ["", None], ids=["empty_fasta", "missing_fasta"])
    def test_bad_sop_prob_is_a_usage_error_before_any_input(self, tmp_path, vocab3_path, capsys, prob, fasta_text):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        # an empty FASTA would give a run with no windows, a missing one exit 2
        fasta = write_fasta(tmp_path, fasta_text) if fasta_text is not None else str(tmp_path / "absent.fa")
        argv = ["guide", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(out_dir / "o.jsonl")]
        code = main([*argv, "--tasks", "sop", "--sop-prob", prob])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": f"sop_reverse_prob must be in [0, 1], got {float(prob)}",
        }
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("k, cull", [(None, False), (-1, False), (13, True)], ids=["null", "negative", "13_with_cull"])
    def test_unusable_vocabulary_k_is_a_data_error_at_load(self, tmp_path, capsys, k, cull):
        obj = json.loads(build_kmer_vocab(2).to_json_bytes())
        if cull:  # [CULL] would stand in for every k-mer the file lacks
            obj["tokens"].insert(16, "[CULL]")
            obj["specials"] = {name: sid + 1 for name, sid in obj["specials"].items()}
        vocab_path = tmp_path / "v.json"
        vocab_path.write_text(json.dumps({**obj, "k": k}))
        fasta = write_fasta(tmp_path, ">a\n" + "ACGT" * 10 + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["tokenize", "--vocab", str(vocab_path), "--fasta", fasta, "--out", str(out_dir / "o.jsonl")]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "DataError",
            "message": f"kmer vocabulary requires an integer k in [1, 12], got {k!r}",
        }
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["leakage", "--k", "0", "--m", "3"], "--k must be >= 1, got 0"),
            (["leakage", "--k", "3", "--m", "0"], "--m must be >= 1, got 0"),
            (["leakage", "--k", "0", "--batch", "{absent}"], "--k must be >= 1, got 0"),
            (
                ["cull", "--vocab", "{absent}", "--remove", "abc", "--out", "{out}"],
                "--remove must be comma-separated token ids, got 'abc'",
            ),
            (
                ["tokenize", "--vocab", "{absent}", "--fasta", "{absent}", "--out", "{out}", "--window", "-5"],
                "window must be >= 1, got -5",
            ),
            (
                ["mask", "--vocab", "{absent}", "--fasta", "{absent}", "--out", "{out}", "--p", "2"],
                "masking probability must be in [0, 1], got 2.0",
            ),
            (
                ["build-vocab", "--kind", "bpe", "--fasta", "{absent}", "--target-size", "0", "--out", "{out}"],
                "target_size must be >= 4 (the base alphabet), got 0",
            ),
            (["leakage", "--k", "3", "--m", "5", "--batch", "{absent}"], "--batch ignores --m"),
            (
                ["build-vocab", "--kind", "bpe", "--k", "6", "--include-n-tokens", "--fasta", "{absent}",
                 "--target-size", "8", "--out", "{out}"],
                "--kind bpe ignores --k and --include-n-tokens",
            ),
            (
                ["build-vocab", "--kind", "kmer", "--k", "2", "--fasta", "{absent}", "--target-size", "9", "--out", "{out}"],
                "--kind kmer ignores --fasta and --target-size",
            ),
            (
                ["guide", "--vocab", "{absent}", "--fasta", "{absent}", "--out", "{out}", "--tasks", "csp,mst",
                 "--sop-prob", "0.5"],
                "--tasks csp,mst ignores --sop-prob",
            ),
        ],
        ids=[
            "leakage_k", "leakage_m", "leakage_batch_k", "cull_remove", "tokenize_window", "mask_p", "bpe_target_size",
            "leakage_batch_ignores_m", "bpe_ignores_k", "kmer_ignores_bpe_flags", "guide_without_sop_ignores_sop_prob",
        ],
    )
    def test_bad_flag_value_is_a_usage_error_before_any_input(self, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        # every input is missing: a run that got as far as reading one would exit 2
        paths = {"absent": str(tmp_path / "absent"), "out": str(out_dir / "o")}
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": "ConfigError", "message": message}
        assert captured.out == ""
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, written, name",
        [
            ("mask --vocab v.json --fasta in.fa --out in.fa", "in.fa", "fasta_path"),
            ("mask --vocab v.json --fasta in.fa --out v.json", "v.json", "vocab_path"),
            ("mask --vocab v.json --fasta in.fa --out link/in.fa", "link/in.fa", "fasta_path"),
            ("mask --vocab v.json --fasta in.fa --out link/v.json", "link/v.json", "vocab_path"),
            ("mask --vocab v.json --fasta o.manifest.json --out o", "o.manifest.json", "fasta_path"),
            ("mask --vocab o.manifest.json --fasta in.fa --out o", "o.manifest.json", "vocab_path"),
            ("guide --tasks csp --vocab v.json --fasta in.fa --out link/in.fa", "link/in.fa", "fasta_path"),
            ("build-vocab --kind bpe --target-size 8 --fasta in.fa --out in.fa", "in.fa", "--fasta"),
            ("tokenize --vocab v.json --fasta in.fa --out in.fa", "in.fa", "--fasta"),
            ("tokenize --vocab v.json --fasta in.fa --out link/v.json", "link/v.json", "--vocab"),
            ("vocab-stats --vocab v.json --fasta in.fa --out link/in.fa", "link/in.fa", "--fasta"),
            ("vocab-stats --vocab v.json --fasta in.fa --accuracy acc.csv --out acc.csv", "acc.csv", "--accuracy"),
            ("cull --vocab v.json --remove 1 --out v.json", "v.json", "--vocab"),
            ("cull --vocab o.remap.json --remove 1 --out o", "o.remap.json", "--vocab"),
            ("cull --vocab v.json --remove @ids.txt --out link/ids.txt", "link/ids.txt", "--remove"),
            ("benchstats --runs runs.csv --out runs.csv", "runs.csv", "--runs"),
            ("benchstats --runs runs.csv --scaling sc.csv --out link/sc.csv", "link/sc.csv", "--scaling"),
        ],
        ids=[
            "fasta", "vocab", "fasta_link", "vocab_link", "manifest_fasta", "manifest_vocab", "guide_link",
            "build_vocab_bpe", "tokenize_fasta", "tokenize_vocab_link", "vocab_stats_link", "vocab_stats_accuracy",
            "cull_vocab", "cull_remap", "cull_id_file_link", "benchstats_runs", "benchstats_scaling_link",
        ],
    )
    def test_output_that_is_an_input_is_refused_before_any_input(self, tmp_path, capsys, argv, written, name):
        """No command's output may replace one of its inputs, also under another name."""
        argv = argv.split()
        # each input holds what its flag reads, so that without the check the command would run
        contents = {
            "--fasta": b">a\nACGTACGTTGCA\n",
            "--vocab": build_kmer_vocab(3).to_json_bytes(),
            "--accuracy": b"token_id,accuracy\n0,0.5\n",
            "--remove": b"1\n",
            "--runs": b"dataset_id,variant,seed,metric_value\nd1,pretrained,0,1\n",
            "--scaling": b"dataset_id,pretrain_size,metric_value\nd1,10,1\n",
        }
        for flag, value in zip(argv, argv[1:]):
            if flag in contents and (flag != "--remove" or value.startswith("@")):
                (tmp_path / value.lstrip("@")).write_bytes(contents[flag])
        (tmp_path / "link").symlink_to(tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        paths = {"--vocab", "--fasta", "--out", "--accuracy", "--runs", "--scaling"}
        for i, (flag, arg) in enumerate(zip(argv, argv[1:]), 1):
            if flag == "--remove" and arg.startswith("@"):
                argv[i] = f"@{tmp_path / arg[1:]}"
            elif flag in paths:
                argv[i] = str(tmp_path / arg)
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": f"output {str(tmp_path / written)!r} is the input {name}; it would be overwritten",
        }
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    def test_bad_line_in_a_cull_id_file_stays_a_data_error(self, tmp_path, vocab3_path, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text("1\nabc\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["cull", "--vocab", vocab3_path, "--remove", f"@{ids}", "--out", str(out_dir / "c.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DataError", "message": f"{ids}: line 2: not a token id: 'abc'"}
        assert list(out_dir.iterdir()) == []

    def test_tokenize_window_zero_never_splits(self, tmp_path, vocab3_path):
        fasta = write_fasta(tmp_path, ">a\n" + "ACGT" * 300 + "\n")
        out = tmp_path / "tok.jsonl"
        assert main(["tokenize", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(out), "--window", "0"]) == 0
        (record,) = read_jsonl(out)
        assert record["seq_id"] == "a" and len(record["ids"]) == 1200 - 2


def test_negative_master_seed_is_rejected_when_the_config_is_built():
    from dnaprep import ConfigError

    with pytest.raises(ConfigError, match="master seed must be >= 0"):
        PipelineConfig(vocab_path="", fasta_path="", out_path="", master_seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("vocab_path", "other.json"),
        ("fasta_path", "other.fa"),
        ("out_path", "other.jsonl"),
        ("n_mode", "bogus"),
        ("add_sentinels", False),
        ("p", 2.0),
        ("mode", "bogus"),
        ("master_seed", -1),
        ("guiding", ("bogus",)),
        ("sop_reverse_prob", -1.0),
        ("window", 0),
        ("threads", 0),
    ],
)
def test_config_fields_cannot_be_assigned(field, value):
    """A config is checked once, on construction, and the manifest echoes it: so its fields are frozen."""
    cfg = PipelineConfig(vocab_path="v.json", fasta_path="in.fa", out_path="out.jsonl", guiding=["ftm"])
    before = dataclasses.asdict(cfg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)
    assert dataclasses.asdict(cfg) == before


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"vocab_path": None}, "vocab_path must be a path, got None"),
        ({"fasta_path": 3}, "fasta_path must be a path, got 3"),
        ({"add_sentinels": "no"}, "add_sentinels must be True or False, got 'no'"),
        ({"add_sentinels": 1}, "add_sentinels must be True or False, got 1"),
        ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
        ({"master_seed": True}, "master_seed must be an integer, got True"),
        ({"window": 2.5}, "window must be an integer, got 2.5"),
        ({"threads": True}, "threads must be an integer, got True"),
        ({"p": "0.1"}, "p must be a real number, got '0.1'"),
        ({"p": True}, "p must be a real number, got True"),
        ({"sop_reverse_prob": None}, "sop_reverse_prob must be a real number, got None"),
        ({"p": 2}, "masking probability must be in [0, 1], got 2"),
        ({"p": float("nan")}, "masking probability must be in [0, 1], got nan"),
        ({"mode": "bogus"}, "unknown masking mode 'bogus'"),
        ({"n_mode": "bogus"}, "unknown n_mode 'bogus'"),
        ({"mode": "flawed", "guiding": ["ftm"]}, "FTM requires fixed-mode masking"),
        ({"guiding": ["csp", "sop", "csp"]}, "guiding tasks must not repeat, got ['csp', 'sop', 'csp']"),
    ],
    ids=lambda value: ",".join(f"{k}={v!r}" for k, v in value.items()) if isinstance(value, dict) else "rejected",
)
def test_config_rejects_a_bad_field_when_it_is_built(fields, message):
    """Every field is checked before any input is read, so a manifest only echoes values that passed."""
    from dnaprep import ConfigError

    with pytest.raises(ConfigError, match=re.escape(message)):
        PipelineConfig(**{"vocab_path": "v.json", "fasta_path": "in.fa", "out_path": "out.jsonl", **fields})


def test_path_fields_give_the_manifest_of_str_fields(tmp_path, vocab3_path):
    fasta = write_fasta(tmp_path, ">a\n" + "ACGT" * 300 + "\n")
    out = str(tmp_path / "o.jsonl")
    manifests = []
    for path in (str, Path):
        result = run_pipeline(PipelineConfig(vocab_path=path(vocab3_path), fasta_path=path(fasta), out_path=path(out)))
        with open(result.manifest_path, "rb") as fh:
            manifests.append(fh.read())
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[1])["config"]["out_path"] == out


def test_build_record_rejects_a_mask_id_outside_the_vocabulary():
    from dnaprep import ConfigError, TokenizerSpec, build_record

    vocab = build_kmer_vocab(3)
    cfg = PipelineConfig(vocab_path="", fasta_path="", out_path="")
    mask_cfg = MaskConfig(k=3, first_special_id=vocab.n_nonspecial)  # mask_id left at -1
    with pytest.raises(ConfigError):
        build_record(DnaSequence("ACGTACGT", "s"), 0, TokenizerSpec(vocab, add_sentinels=True), mask_cfg, cfg)


@pytest.mark.parametrize(
    "argv, guiding", [(["mask"], ()), (["guide", "--tasks", "sop,csp"], ("sop", "csp"))], ids=["mask", "guide"]
)
def test_a_run_with_no_flags_echoes_the_library_defaults(tmp_path, vocab3_path, monkeypatch, argv, guiding):
    """A flag that is not given takes the library's default, so the CLI and a library run agree."""
    monkeypatch.delenv("DNAPREP_SEED", raising=False)
    fasta = write_fasta(tmp_path, ">a\n" + "ACGTTGCA" * 90 + "\n")
    out = str(tmp_path / "o.jsonl")
    assert main([*argv, "--vocab", vocab3_path, "--fasta", fasta, "--out", out]) == 0
    with open(out + ".manifest.json") as fh:
        config = json.load(fh)["config"]
    expected = dataclasses.asdict(PipelineConfig(vocab3_path, fasta, out, guiding=guiding))
    assert config == json.loads(json.dumps(expected))


def test_build_record_draws_sop_from_the_masking_seed():
    """SOP and the targets share mask_cfg's seed: the pipeline config's master_seed is not read."""
    from dnaprep import TokenizerSpec, build_record

    vocab = build_kmer_vocab(3)
    spec = TokenizerSpec(vocab, add_sentinels=True)
    seq = DnaSequence("ACGTTGCAAC" * 12, "s")

    def lines(mask_seed, cfg_seed):
        mask_cfg = MaskConfig.for_vocab(vocab, master_seed=mask_seed)
        cfg = PipelineConfig("", "", "", master_seed=cfg_seed, guiding=("sop",), sop_reverse_prob=0.5)
        return [build_record(seq, ordinal, spec, mask_cfg, cfg) for ordinal in range(40)]

    assert lines(3, 0) == lines(3, 7) == lines(3, 3)
    assert lines(3, 0) != lines(4, 0)


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--sigma-threshold=nan", "sigma_threshold must be a finite number, got nan"),
        ("--r2-min=nan", "r2_min must be a finite number, got nan"),
        ("--r2-min=-inf", "r2_min must be a finite number, got -inf"),
    ],
    ids=["sigma_nan", "r2_nan", "r2_minus_inf"],
)
def test_benchstats_refuses_a_non_finite_threshold_before_reading_the_tables(tmp_path, capsys, flag, message):
    out = tmp_path / "report.json"
    # the tables are missing: a run that got as far as reading one would exit 2
    argv = ["benchstats", "--runs", str(tmp_path / "absent.csv"), "--scaling", str(tmp_path / "absent2.csv")]
    assert main([*argv, flag, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ConfigError", "message": message}
    assert captured.out == "" and not out.exists()
