"""The traced run: per-module metrics for one workload (``--trace 1``).

Every metric is measured on the workload's own input. The workload's main
job is traced; layers that the main job does not reach are measured on a
probe over the same input: a ``guide`` run over the first PROBE_BASES
bases for the pipeline, masking, guiding and leakage layers when the main
job has no pipeline spans, and ``compute_token_stats`` over the whole
FASTA for vocabstats when it has no token-stats spans. Untraced calls of
the same jobs run interleaved with the traced ones, which gives the
tracing overhead, and every traced output must be byte-identical to the
untraced one. All timing goes through ``run.interleave``.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from run import ROOT, WINDOW, interleave, same_as, sha256_ids
from spans import Tracer, traced

US = 1e6
PROBE_BASES = 256 * WINDOW
BUCKETS = (("run_lt_1k", 512, 16), ("run_1k_10k", 4096, 4), ("run_ge_10k", 10240, 1))


@dataclass
class TracedJob:
    """A job timed with and without tracing, and the spans of its traced calls."""

    run: Callable  # (threads=1) -> output digest
    bases: int
    out: Path
    plain: list[float]
    spanned: list[float]
    tracer: Tracer


class LayerReport:
    """Runs the traced jobs of one workload and turns their spans into metrics."""

    def __init__(self, bench):
        self.b = bench
        self.prog = bench.prog
        self.dp = bench.dp
        self.nproc = os.cpu_count() or 1
        self.tracers: dict[str, Tracer] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.b.metric(name, value, unit)

    def budget(self, share: float) -> float:
        return self.b.args.seconds * share

    # -- jobs ------------------------------------------------------------------

    def traced_job(self, label: str, run, ref: str, bases: int, out: Path, budget: float) -> TracedJob:
        """Interleave untraced and traced calls of ``run``; every output must equal ``ref``.

        Results are kept from the first traced call only, so counts are per run.
        """
        tracer = Tracer()

        def spanned():
            with traced(tracer):
                digest = run()
            tracer.keeping = False
            return digest

        same = same_as(ref, str)
        jobs = {"plain": (run, same), "traced": (spanned, same)}
        times, _ = interleave(jobs, {"plain": 1, "traced": 1}, budget, self.b.checks, min_reps=2)
        self.tracers[label] = tracer
        return TracedJob(run, bases, out, times["plain"], times["traced"], tracer)

    def run(self) -> None:
        b, prog = self.b, self.prog
        ref = b.references()
        self.metric("tokenizers.bpe_train_s", b.bpe_train_s, "s")
        self.metric("tokenizers.bpe_merges", len(prog.bpe_vocab.merges), "count")

        main = self.traced_job("main", prog.main, ref["main"], b.bases, b.work / "main.out", self.budget(0.4))
        overhead = statistics.median(main.spanned) / statistics.median(main.plain)
        self.metric("pipeline.trace_overhead", overhead, "ratio")
        self.tokenizer_counts(main.tracer)
        self.fasta_metrics(main)

        pipe = main if main.tracer.durations("pipeline.build_record") else self.guide_probe()
        self.pipeline_metrics(pipe)
        self.masking_metrics(pipe.tracer)
        self.guiding_metrics(pipe.tracer)
        stats = main if main.tracer.durations("vocabstats.compute_token_stats") else self.stats_probe()
        own = stats.tracer.self_time("vocabstats.compute_token_stats")
        self.metric("vocabstats.token_stats_mbps", len(stats.spanned) * stats.bases / 1e6 / own, "Mbp/s")

        self.parallel_tokenize(ref["tokenize"], self.budget(0.1))
        self.bpe_buckets()
        self.write_spans()

    def guide_probe(self) -> TracedJob:
        """A traced guide run over the input's first PROBE_BASES bases, checked by the oracle."""
        prog = self.prog
        seqs = prog.slice_seqs(0, PROBE_BASES)
        out = self.b.work / "probe.out"

        def run(threads: int = 1) -> str:
            return self.dp.run_pipeline(prog.pipeline_cfg(out, threads), sequences=seqs).output_digest

        ref = run()
        self.b.check_batch(out, [(s.source_id, s.bases) for s in seqs])
        return self.traced_job("probe", run, ref, sum(map(len, seqs)), out, self.budget(0.1))

    def stats_probe(self) -> TracedJob:
        """compute_token_stats over the workload's FASTA, written as CSV, for the vocabstats layer."""
        out = self.b.work / "stats.out"

        def run(threads: int = 1) -> str:
            return self.prog.vocab_stats(threads, out)

        ref = run()
        self.b.check_token_stats(out, ref)
        return self.traced_job("stats", run, ref, self.b.bases, out, self.budget(0.05))

    def parallel_tokenize(self, ref: str, budget: float) -> None:
        """kmer_tokenize_parallel at threads=nproc against the serial encoder."""
        prog = self.prog

        def parallel() -> list:
            return [self.dp.kmer_tokenize_parallel(s, prog.k6_spec, threads=self.nproc) for s in prog.seqs]

        same = same_as(ref, sha256_ids)
        jobs = {"serial": (prog.tokenize, same), "parallel": (parallel, same)}
        times, _ = interleave(jobs, {"serial": 1, "parallel": 1}, budget, self.b.checks, min_reps=3)
        serial, par = statistics.median(times["serial"]), statistics.median(times["parallel"])
        self.metric("tokenizers.parallel_mbps", self.b.bases / 1e6 / par, "Mbp/s")
        self.metric("tokenizers.parallel_speedup", serial / par, "ratio")

    def bpe_buckets(self) -> None:
        """bpe_encode of N-free chunks of 512, 4096 and 10240 bases cut from the input."""
        b, vocab = self.b, self.prog.bpe_vocab
        stretches = [run for seq in self.prog.seqs for run in seq.bases.split("N") if run]
        stretches.sort(key=len, reverse=True)
        for name, length, count in BUCKETS:
            chunks = [
                self.dp.DnaSequence(run[i : i + length])
                for run in stretches
                for i in range(0, len(run) - length + 1, length)
            ][:count]
            b.checks.expect(len(chunks) == count, f"input has {len(chunks)} N-free chunks of {length}")
            t0 = perf_counter()
            outs = [self.dp.bpe_encode(c, vocab) for c in chunks]
            elapsed = perf_counter() - t0
            b.check_round_trip(chunks, outs)
            self.metric(f"tokenizers.bpe_encode_kbps.{name}", count * length / 1e3 / elapsed, "kb/s")

    # -- metrics from spans ----------------------------------------------------

    def pipeline_metrics(self, job: TracedJob) -> None:
        t = job.tracer
        windows = len(t.durations("pipeline.build_record"))  # over all traced calls
        build = np.array(t.durations("pipeline.build_record")) * US
        self.metric("pipeline.build_record_us.p50", np.percentile(build, 50), "us")
        self.metric("pipeline.build_record_us.p99", np.percentile(build, 99), "us")
        own = t.self_time("pipeline.run_pipeline") + t.self_time("pipeline.iter_windows")  # JSON, write, sha256
        self.metric("pipeline.self_us_per_window", own * US / windows, "us")
        self.metric("pipeline.windowing_us_per_window", t.self_time("pipeline.iter_windows") * US / windows, "us")
        self.metric("pipeline.records", windows / len(job.spanned), "count")
        self.metric("pipeline.out_bytes_per_base", job.out.stat().st_size / job.bases, "B/base")
        self.metric("tokenizers.us_per_window", t.total("tokenizers.tokenize") * US / windows, "us")
        self.mt_speedup(job)

    def mt_speedup(self, job: TracedJob) -> None:
        """The job at threads=nproc against threads=1, interleaved; both outputs must match."""
        same = same_as(job.run(), str)
        jobs = {"serial": (job.run, same), "threads": (lambda: job.run(threads=self.nproc), same)}
        times, _ = interleave(jobs, {"serial": 1, "threads": 1}, self.budget(0.2), self.b.checks, min_reps=2)
        speedup = statistics.median(times["serial"]) / statistics.median(times["threads"])
        self.metric("pipeline.mt_speedup", speedup, "ratio")
        self.metric("pipeline.mt_threads", self.nproc, "count")

    def masking_metrics(self, t: Tracer) -> None:
        from dnaprep.leakage import empirical_plan_leakage

        windows = len(t.durations("pipeline.build_record"))
        plans = t.kept["masking.neighbor_mask"]
        self.metric("masking.select_us_per_window", t.total("masking.select_targets") * US / windows, "us")
        self.metric("masking.neighbor_us_per_window", t.total("masking.neighbor_mask") * US / windows, "us")
        targets = sum(len(p.m_positions) for p in plans)
        candidates = sum(p.input_ids.size - len(p.special_positions) for p in plans)
        self.metric("masking.target_rate", targets / candidates, "ratio")
        self.metric("masking.expansion", sum(len(p.m_in_positions) for p in plans) / targets, "ratio")
        t0 = perf_counter()
        for plan in plans:
            empirical_plan_leakage(plan, plan.k)
        self.metric("leakage.plan_us_per_window", (perf_counter() - t0) * US / len(plans), "us")

    def guiding_metrics(self, t: Tracer) -> None:
        windows = len(t.durations("pipeline.build_record"))
        for task, fn in (("sop", "sop_transform"), ("ftm", "ftm_targets"), ("mst", "mst_apply"), ("csp", "csp_targets")):
            self.metric(f"guiding.{task}_us_per_window", t.total(f"guiding.{fn}") * US / windows, "us")
        sop = [label for _, label in t.kept["guiding.sop_transform"]]
        self.metric("guiding.labels.sop", len(sop), "count")
        self.metric("guiding.labels.ftm", sum(len(g.positions) for g in t.kept["guiding.ftm_targets"]), "count")
        self.metric("guiding.labels.mst", sum(len(g.positions) for _, g in t.kept["guiding.mst_apply"]), "count")
        self.metric("guiding.labels.csp", sum(len(g.positions) for g in t.kept["guiding.csp_targets"]), "count")
        self.metric("guiding.sop_swap_rate", sum(sop) / len(sop), "ratio")

    def tokenizer_counts(self, t: Tracer) -> None:
        outs = t.kept["tokenizers.tokenize"]
        unk = self.prog.k6_spec.vocab.unk_id
        tokens = sum(ids.size for ids in outs)
        self.metric("tokenizers.tokens", tokens, "count")
        self.metric("tokenizers.unk_share", sum(int((ids == unk).sum()) for ids in outs) / tokens, "ratio")

    def fasta_metrics(self, job: TracedJob) -> None:
        t, reps = job.tracer, len(job.spanned)
        read = t.self_time("fasta.read_fasta") / reps
        self.metric("fasta.read_s", read, "s")
        self.metric("fasta.mbps", job.bases / 1e6 / read, "Mbp/s")
        self.metric("fasta.records", (len(t.durations("fasta.read_fasta")) - reps) / reps, "count")
        validated = reps * sum(len(s) for s in t.kept["core.DnaSequence"])
        self.metric("core.validate_mbps", validated / 1e6 / t.total("core.DnaSequence"), "Mbp/s")

    def write_spans(self) -> None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        for label, tracer in self.tracers.items():
            tracer.write(out / f"spans-{self.b.args.workload}-seed{self.b.seed}-{label}.jsonl")
