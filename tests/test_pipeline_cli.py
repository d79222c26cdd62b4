import hashlib
import json

import numpy as np
import pytest

from dnaprep import (
    DnaSequence,
    MaskConfig,
    PipelineConfig,
    build_kmer_vocab,
    iter_windows,
    run_pipeline,
    select_targets,
)
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

    def test_manifest_reproducibility_fields(self, tmp_path, vocab3_path):
        fasta = write_fasta(tmp_path, ">a\nACGTACGT\n")
        cfg = PipelineConfig(
            vocab_path=vocab3_path, fasta_path=fasta, out_path=str(tmp_path / "out.jsonl")
        )
        result = run_pipeline(cfg)
        manifest = json.loads(open(result.manifest_path).read())
        assert manifest["tool"] == "dnaprep"
        assert manifest["config"]["master_seed"] == 0
        with open(fasta, "rb") as fh:
            assert manifest["inputs"]["fasta"] == hashlib.sha256(fh.read()).hexdigest()
        assert manifest["outputs"]["batch"] == result.output_digest

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
        header = open(stats_out).readline().strip()
        assert header.startswith("token_id,token,frequency")
        culled_out = str(tmp_path / "culled.json")
        assert main(["cull", "--vocab", vocab3_path, "--remove", "0,1,2", "--out", culled_out]) == 0
        from dnaprep import Vocabulary

        culled = Vocabulary.load(culled_out)
        assert culled.cull_id is not None
        remap = json.loads(open(culled_out + ".remap.json").read())
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
        payload = json.loads(open(report_out).read())
        assert set(payload["datasets"]) == {"d0", "d1", "d2", "d3"}

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mask", "--vocab"])  # missing value
        assert exc.value.code == 1

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
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

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
        import csv

        real_writer = csv.writer

        def header_then_fail(fh, **kwargs):
            writer = real_writer(fh, **kwargs)

            class Writer:
                rows = 0

                def writerow(self, row):
                    if self.rows:
                        fh.flush()
                        _raise_no_space()
                    self.rows += 1
                    writer.writerow(row)

            return Writer()

        out = tmp_path / "out" / "stats.csv"
        out.parent.mkdir()
        fasta = write_fasta(tmp_path, ">s\nACGTACGTTGCA\n")
        args = ["vocab-stats", "--vocab", vocab3_path, "--fasta", fasta, "--out", str(out)]
        self._keeps_earlier_output(
            monkeypatch, args, out, lambda mp: mp.setattr(csv, "writer", header_then_fail)
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
        ],
        ids=["one_field", "nan", "inf"],
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

    @pytest.mark.parametrize("name", ["DNAPREP_SEED", "DNAPREP_THREADS"])
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


def test_negative_master_seed_is_rejected_when_the_config_is_built():
    from dnaprep import ConfigError

    with pytest.raises(ConfigError, match="master seed must be >= 0"):
        PipelineConfig(vocab_path="", fasta_path="", out_path="", master_seed=-1)


def test_build_record_rejects_a_mask_id_outside_the_vocabulary():
    from dnaprep import ConfigError, TokenizerSpec, build_record

    vocab = build_kmer_vocab(3)
    cfg = PipelineConfig(vocab_path="", fasta_path="", out_path="")
    mask_cfg = MaskConfig(k=3, special_ids=vocab.special_ids)  # mask_id left at -1
    with pytest.raises(ConfigError):
        build_record(DnaSequence("ACGTACGT", "s"), 0, TokenizerSpec(vocab, add_sentinels=True), mask_cfg, cfg)
