"""The dnaprep benchmark: one command, two workloads, checked outputs.

    python3 bench/run.py --workload guide_k6 --seed 0 --seconds 55 --trace 0

Run it from the root of a source checkout; dnaprep is imported from
``src/``. The seed makes the inputs (``bench/gen.py``), which dnaprep only
ever sees as files. Inputs, vocabulary files and reference runs are made
before any timing starts and are never timed.

``--trace 0`` measures the end-to-end metrics: the timed jobs run
interleaved for ``--seconds`` and each reports its median call (see
``interleave``); set-up time and peak memory come from fresh processes
that do only dnaprep's work. ``--trace 1`` is a separate traced run that
breaks the same jobs down by module (``bench/layers.py``,
``bench/spans.py``). Both check every output: an independent oracle
(``bench/oracle.py``) for any seed, byte-identical repeats and thread
counts, and for the default seed the digests pinned in
``bench/golden.json``. Each non-result line is for people; the last line
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
K = 6
WINDOW = 512
GUIDE_TASKS = ("ftm", "mst", "sop", "csp")
BPE_TARGET = 256
# Shares of --seconds for the timed jobs, which run interleaved.
SHARES = {
    "main": 0.4,
    "tokenize": 0.1,
    "bpe_train": 0.1,
    "bpe_encode": 0.1,
    "setup": 0.2,
    "host_py": 0.05,
    "host_np": 0.05,
}


class Checks:
    """Counts checked operations; a problem or an exception is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok

    def problems(self, problems: list[str]) -> None:
        self.expect(not problems, "; ".join(problems[:3]))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_ids(parts) -> str:
    digest = hashlib.sha256()
    for ids in parts:
        digest.update(np.asarray(ids, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def sha256_vocab(vocab) -> str:
    return hashlib.sha256(vocab.to_json_bytes()).hexdigest()


def host_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified":
            facts[f"l{level}"] = f"{size} per instance, shared by cpus {shared}"
    facts["note"] = f"thread speedups on this shared {facts['nproc']}-CPU host are informational only"
    return facts


class HostSpeed:
    """How fast this host runs during one run, from two loops that do not touch dnaprep.

    A shared host's cores change speed by up to 1.7x for minutes at a time,
    and every job of a run slows or speeds up with them. The two loops run
    interleaved with the jobs, so they see the same spells: one is plain
    Python (dicts, sorting, JSON, hashing), as in the pipeline and BPE, and
    one is numpy over an array too large for L2, as in the tokenizers. The
    speed is the geometric mean of REFERENCE_S over their medians, so 1.0 is
    a host that runs them in REFERENCE_S (a 2-vCPU Intel Xeon VM at its
    usual speed). Rates are divided by it and set-up time is multiplied by
    it; the raw figures are printed next to them.
    """

    REFERENCE_S = {"host_py": 0.065, "host_np": 0.028}

    def __init__(self) -> None:
        self.ints = np.random.default_rng(0).integers(0, 4096, 2_000_000)

    def jobs(self) -> dict[str, tuple[Callable, None]]:
        return {"host_py": (self.python_loop, None), "host_np": (self.numpy_loop, None)}

    @staticmethod
    def python_loop() -> str:
        table = {f"k{i}": i * 3 for i in range(60_000)}
        return hashlib.sha256(json.dumps(sorted(table.items())).encode()).hexdigest()

    def numpy_loop(self) -> int:
        return int(np.bincount(self.ints, minlength=4096).sum() + (np.cumsum(self.ints) % 7).sum())

    def speed(self, typical: dict[str, float]) -> float:
        ratios = [ref / typical[name] for name, ref in self.REFERENCE_S.items()]
        return float(np.exp(np.mean(np.log(ratios))))


def working_set(input_bytes: int, peak_rss_mb: float | None) -> dict:
    """Input size and the program's peak resident memory, each against the shared L3 size."""
    out = {"input_mib": round(input_bytes / 2**20, 1)}
    peak = None if peak_rss_mb is None else peak_rss_mb * 1e6
    if peak is not None:
        out["peak_rss_mib"] = round(peak / 2**20, 1)
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return out
    l3 = int(text.rstrip("KMG")) * {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1], 1)
    out.update(l3_mib=round(l3 / 2**20, 1), input_per_l3=round(input_bytes / l3, 3))
    if peak is not None:
        out["peak_rss_per_l3"] = round(peak / l3, 3)
    return out


class Program:
    """dnaprep's work on one workload's input files: the timed jobs.

    It sees only the files in ``work``: the FASTA and the saved 6-mer
    vocabulary. The benchmark process and the memory child (``--child``)
    both run these jobs, so the child measures exactly what is timed.
    """

    def __init__(self, dp, workload: Workload, work: Path, seed: int):
        self.dp = dp
        self.workload = workload
        self.work = work
        self.seed = seed
        self.fasta = work / "input.fa"
        self.k6_path = work / "k6.json"
        self.k6_spec = dp.TokenizerSpec(dp.Vocabulary.load(self.k6_path))
        self.seqs = list(dp.read_fasta(self.fasta))
        self.bases = sum(map(len, self.seqs))
        train, encode = workload.bpe
        self.bpe_corpus = self.slice_seqs(*train)
        self.encode_seqs = self.slice_seqs(*encode)
        self.bpe_vocab = None

    def slice_seqs(self, start: int, stop: int) -> list:
        """Bases [start, stop) of the concatenated records, cut at record ends."""
        start, stop = (x + self.bases if x < 0 else x for x in (start, stop))
        out, pos = [], 0
        for seq in self.seqs:
            lo, hi = max(start, pos), min(stop, pos + len(seq))
            if lo < hi:
                out.append(self.dp.DnaSequence(seq.bases[lo - pos : hi - pos], seq.source_id))
            pos += len(seq)
        return out

    def jobs(self) -> dict[str, tuple[Callable, Callable]]:
        """Name -> (job, digest of its output); bpe_train comes before bpe_encode, which uses its vocabulary."""
        return {
            "main": (self.main, str),
            "tokenize": (self.tokenize, sha256_ids),
            "bpe_train": (self.train, sha256_vocab),
            "bpe_encode": (self.encode, sha256_ids),
        }

    def main(self, threads: int = 1, name: str = "main.out") -> str:
        """One run of the workload's main job; returns the output file's digest."""
        return self.workload.main(self, threads, self.work / name)

    def guide(self, threads: int, out: Path) -> str:
        """The guide job: 6-mers, as_unk, sentinels, p=0.11, fixed mode, 512-base windows."""
        return self.dp.run_pipeline(self.pipeline_cfg(out, threads)).output_digest

    def vocab_stats(self, threads: int, out: Path) -> str:
        """The streaming vocab-stats job: read_fasta -> compute_token_stats -> CSV."""
        from dnaprep.vocabstats import write_stats_csv

        spec = self.dp.TokenizerSpec(self.dp.Vocabulary.load(self.k6_path))
        write_stats_csv(out, self.dp.compute_token_stats(self.dp.read_fasta(self.fasta), spec))
        return sha256_file(out)

    def pipeline_cfg(self, out: Path, threads: int = 1):
        return self.dp.PipelineConfig(
            vocab_path=str(self.k6_path),
            fasta_path=str(self.fasta),
            out_path=str(out),
            master_seed=self.seed,
            guiding=GUIDE_TASKS,
            window=WINDOW,
            threads=threads,
        )

    def tokenize(self) -> list:
        return [self.dp.kmer_tokenize(s, self.k6_spec) for s in self.seqs]

    def train(self):
        self.bpe_vocab = self.dp.bpe_train(self.bpe_corpus, BPE_TARGET)
        return self.bpe_vocab

    def encode(self) -> list:
        return [self.dp.bpe_encode(s, self.bpe_vocab) for s in self.encode_seqs]


class Bench:
    """One workload at one seed: its inputs, reference outputs and checks."""

    def __init__(self, args, work: Path):
        import dnaprep

        self.dp = dnaprep
        self.args = args
        self.seed = args.seed
        self.work = work
        self.workload = WORKLOADS[args.workload]
        self.checks = Checks()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.digests: dict[str, str] = {}

        records = self.workload.records(self.seed)
        self.props = gen.properties(records)
        self.fasta = work / "input.fa"
        gen.write_fasta(self.fasta, records)
        del records
        self.digests["input_fasta"] = sha256_file(self.fasta)
        self.ref_records = oracle.parse_fasta(self.fasta)
        dnaprep.build_kmer_vocab(K).save(work / "k6.json")
        self.prog = Program(dnaprep, self.workload, work, self.seed)
        self.bases = self.prog.bases

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    # -- references: untimed first calls, checked against the oracle ---------------

    def references(self) -> dict[str, str]:
        """Run each job once, check its output, and return the digests repeats must match."""
        prog = self.prog
        t0 = perf_counter()
        vocab = prog.train()
        self.bpe_train_s = perf_counter() - t0
        self.digests["bpe_vocab"] = sha256_vocab(vocab)

        main = prog.main()
        self.digests[self.workload.digest] = main
        self.workload.check(self, self.work / "main.out", main)

        tokens = prog.tokenize()
        self.check_tokens(tokens)
        ref = {"main": main, "tokenize": sha256_ids(tokens), "bpe_train": self.digests["bpe_vocab"]}
        del tokens
        encoded = prog.encode()
        self.check_round_trip(prog.encode_seqs, encoded)
        ref["bpe_encode"] = sha256_ids(encoded)
        return ref

    def check_guide(self, path: Path, digest: str) -> None:
        """The batch against the oracle, and against the batch of threads=nproc."""
        self.check_batch(path, self.ref_records)
        nproc = os.cpu_count() or 1
        if nproc > 1:
            same = self.prog.main(threads=nproc, name="threads.out") == digest
            self.checks.expect(same, f"threads={nproc} batch differs from threads=1")

    def check_batch(self, path, records) -> None:
        """Every record of a guide batch against the oracle, streamed, plus the negative control."""
        vocab = self.prog.k6_spec.vocab
        ref = oracle.KmerOracle(K, vocab.specials)
        wins = oracle.windows(records, WINDOW)
        control = None
        n = -1
        with open(path) as fh:
            for n, line in enumerate(fh):
                if n >= len(wins):
                    break
                rec = json.loads(line)
                self.checks.problems(ref.check_record(rec, *wins[n], GUIDE_TASKS))
                if control is None and rec["m"]:
                    control = (unmask_one(rec, vocab.mask_id), *wins[n], GUIDE_TASKS)
        self.checks.expect(n + 1 == len(wins), f"{n + 1} records for {len(wins)} windows")
        self.checks.expect(control is not None and bool(ref.check_record(*control)), "oracle accepted an unmasked position")

    def check_token_stats(self, path: Path, digest: str) -> None:
        """Token frequencies of the CSV against counts of the reference k-mer ids."""
        unk = self.prog.k6_spec.vocab.unk_id
        freq = np.zeros(len(self.prog.k6_spec.vocab), dtype=np.int64)
        for _, bases in self.ref_records:
            freq += np.bincount(oracle.kmer_ids_array(bases, K, unk), minlength=freq.size)
        with open(path) as fh:
            got = np.array([int(row.split(",")[2]) for row in fh.read().splitlines()[1:]])
        self.checks.expect(np.array_equal(got, freq), "token frequencies differ from the reference counts")

    def check_tokens(self, tokens: list) -> None:
        """Serial ids equal the reference ids and kmer_tokenize_parallel's."""
        spec = self.prog.k6_spec
        unk = spec.vocab.unk_id
        for seq, ids, (_, bases) in zip(self.prog.seqs, tokens, self.ref_records):
            self.checks.expect(np.array_equal(ids, oracle.kmer_ids_array(bases, K, unk)), f"{seq.source_id}: ids")
            par = self.dp.kmer_tokenize_parallel(seq, spec, threads=os.cpu_count() or 1)
            self.checks.expect(np.array_equal(ids, par), f"{seq.source_id}: parallel ids differ from serial")

    def check_round_trip(self, seqs, ids_list) -> None:
        """decode_ids of each N-free stretch of the ids gives back that run."""
        vocab = self.prog.bpe_vocab
        for seq, ids in zip(seqs, ids_list):
            pieces = np.split(ids, np.flatnonzero(ids == vocab.unk_id))
            decoded = [self.dp.decode_ids(p, vocab) for p in pieces]
            self.checks.expect(decoded == seq.bases.split("N"), f"{seq.source_id}: BPE decode does not round-trip")

    # -- fresh processes -------------------------------------------------------

    def setup_once(self) -> float:
        """A fresh process imports dnaprep and builds and saves the vocabulary; its time.

        numpy is imported before the clock starts: its import is the same
        for every version of dnaprep, and on a shared host it only adds
        noise to the part dnaprep controls.
        """
        code = (
            "import sys, time\n"
            "import numpy\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import dnaprep, dnaprep.cli\n"
            f"dnaprep.build_kmer_vocab({K}).save('setup.json')\n"
            "print(time.perf_counter() - t0)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=self.work, capture_output=True, text=True, timeout=60, check=True
        )
        return float(out.stdout.strip().splitlines()[-1])

    def memory_child(self, ref: dict[str, str]) -> float:
        """Peak resident MB of a fresh process that runs each job once on the input files.

        The child holds nothing of the benchmark's: no generated records,
        reference outputs or oracle state. Its digests must equal the
        references.
        """
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", self.args.workload]
        cmd += ["--seed", str(self.seed), "--child", str(self.work)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        got = json.loads(out.stdout.strip().splitlines()[-1])
        for name, digest in ref.items():
            self.checks.expect(got["digests"].get(name) == digest, f"memory child: {name} output differs")
        return got["peak_rss_mb"]

    # -- the two modes ---------------------------------------------------------

    def end_to_end(self) -> None:
        ref = self.references()
        host = HostSpeed()
        jobs = {name: (fn, same_as(ref[name], fp)) for name, (fn, fp) in self.prog.jobs().items()}
        jobs["setup"] = (self.setup_once, None)
        jobs.update(host.jobs())
        times, outs = interleave(jobs, SHARES, self.args.seconds, self.checks)
        typical = {name: statistics.median(t) for name, t in times.items()}
        speed = host.speed(typical)
        prog = self.prog
        rates = {
            "throughput_mbps": (self.bases / 1e6 / typical["main"], "Mbp/s"),
            "tokenize_mbps": (self.bases / 1e6 / typical["tokenize"], "Mbp/s"),
            "bpe_train_kbps": (sum(map(len, prog.bpe_corpus)) / 1e3 / typical["bpe_train"], "kb/s"),
            "bpe_encode_kbps": (sum(map(len, prog.encode_seqs)) / 1e3 / typical["bpe_encode"], "kb/s"),
        }
        loops = {name: typical[name] for name in host.REFERENCE_S}
        raw = {name: rate for name, (rate, _) in rates.items()}
        setup = statistics.median(outs["setup"])
        print(json.dumps({"host_speed": speed, "host_loops_s": loops, "raw_rates": raw, "raw_setup_s": setup}))
        for name, (rate, unit) in rates.items():
            self.metric(name, rate / speed, unit)
        self.metric("setup_s", setup * speed, "s")
        self.metric("peak_rss_mb", self.memory_child(ref), "MB")

    def traced(self) -> None:
        from layers import LayerReport

        LayerReport(self).run()


@dataclass(frozen=True)
class Workload:
    records: Callable  # seed -> [(header, bases)], from gen
    main: Callable  # Program method: (program, threads, out path) -> output digest
    check: Callable  # Bench method: (bench, out path, digest), checks the main output
    digest: str  # name of the main output's digest in golden.json
    # The bases that train BPE and that are encoded, as [start, stop) offsets
    # into the concatenated records (negative from the end). Both are 8 kb of
    # an N-free stretch, so the seed changes only the bases.
    bpe: tuple


WORKLOADS = {
    "guide_k6": Workload(
        gen.mixed_records,
        Program.guide,
        Bench.check_guide,
        "batch",
        ((-16_896, -8_704), (-8_704, -512)),  # the last record's N-free stretch
    ),
    "chrom_k6": Workload(
        gen.chrom_records,
        Program.vocab_stats,
        Bench.check_token_stats,
        "token_stats_csv",
        ((0, 8_192), (8_192, 16_384)),  # chr1's N-free head
    ),
}


def same_as(ref: str, digest: Callable) -> Callable:
    return lambda out: digest(out) == ref


def interleave(jobs: dict, shares: dict, seconds: float, checks: Checks, min_reps: int = 4) -> tuple[dict, dict]:
    """Time the jobs round-robin by share until ``seconds`` have passed.

    ``jobs`` maps a name to (function, check of its output or None). The
    next call always goes to the job furthest behind its share of the time
    spent so far, so every job samples the whole run rather than one
    stretch of it: on a shared host the speed of a core swings by up to
    1.7x for seconds at a time, and interleaving makes every job see the
    same mix of fast and slow spells. Callers report the median call.
    Each output is checked outside the timed region and then dropped, so
    no job runs beside the last one's output. Returns the times and the
    outputs of the unchecked jobs.
    """
    times = {name: [] for name in jobs}
    outs = {name: [] for name, (_, same) in jobs.items() if same is None}
    spent = dict.fromkeys(jobs, 0.0)
    start = perf_counter()
    while perf_counter() - start < seconds or min(map(len, times.values())) < min_reps:
        name = min(jobs, key=lambda n: spent[n] / shares[n])
        fn, same = jobs[name]
        t0 = perf_counter()
        out = fn()
        elapsed = perf_counter() - t0
        times[name].append(elapsed)
        spent[name] += elapsed
        if same is None:
            outs[name].append(out)
        else:
            checks.expect(same(out), f"{name} output differs from its first run")
        del out
    return times, outs


def unmask_one(rec: dict, mask_id: int) -> dict:
    """A copy of a record with one masked position given back a token.

    The position is a neighbor of a target, the leak neighbor masking
    exists to prevent, or the target itself when it has no neighbor.
    """
    neighbors = sorted(set(rec["m_in"]) - set(rec["m"]))
    pos = neighbors[0] if neighbors else rec["m"][0]
    bad = json.loads(json.dumps(rec))
    if bad["input_ids"][pos] != mask_id:
        raise ValueError(f"position {pos} of {rec['seq_id']} is not masked")
    bad["input_ids"][pos] = 0
    return bad


def child(args) -> int:
    """The memory child: each job once on the files in ``args.child``; prints digests and peak RSS."""
    import dnaprep

    prog = Program(dnaprep, WORKLOADS[args.workload], Path(args.child), args.seed)
    digests = {}
    for name, (fn, digest) in prog.jobs().items():
        out = fn()
        digests[name] = digest(out)
        del out
    print(json.dumps({"digests": digests, "peak_rss_mb": peak_rss_mb()}))
    return 0


def peak_rss_mb() -> float:
    """This process's peak resident memory, in MB.

    VmHWM belongs to the process's own address space. ru_maxrss would not
    do here: Linux carries it over exec, so a child started from a large
    parent reports at least the parent's size.
    """
    with open("/proc/self/status") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kib * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "dnaprep" / "__init__.py").is_file():
        print(f"error: no dnaprep sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dnaprep

    if Path(dnaprep.__file__).resolve().parent != (SRC / "dnaprep").resolve():
        print(f"error: imported dnaprep from {dnaprep.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child(args)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    bench = None
    crashed = False
    try:
        print(json.dumps({"host": host_facts()}))
        bench = Bench(args, work)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "input": bench.props}))
        (bench.traced if args.trace else bench.end_to_end)()
        check_golden(bench)
    except Exception:
        traceback.print_exc()
        crashed = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = bench.checks if bench else Checks()
    if crashed:
        checks.expect(False, "the run raised an exception")
    metrics = bench.metrics if bench else {}
    if bench:
        if not args.trace:
            bench.metric("ok_ratio", (checks.attempted - checks.failed) / checks.attempted, "ratio")
        peak = metrics.get("peak_rss_mb", (None,))[0]
        print(json.dumps({"digests": bench.digests, "working_set": working_set(bench.bases, peak)}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if crashed else 0


def check_golden(bench: Bench) -> None:
    """At the default seed, every digest must equal the pinned one."""
    if bench.seed != DEFAULT_SEED:
        return
    golden = json.loads((HERE / "golden.json").read_text())[bench.args.workload]
    for name, digest in bench.digests.items():
        bench.checks.expect(golden.get(name) == digest, f"digest of {name} differs from bench/golden.json")


if __name__ == "__main__":
    sys.exit(main())
