"""Command-line surface.

Subcommands: build-vocab, tokenize, mask, guide, leakage, vocab-stats,
cull, benchstats. Exit codes: 0 ok, 1 usage error, 2 data error,
3 constraint violation. A flag not given takes the library's default.
``leakage --m`` with ``--batch``, and a ``build-vocab`` flag of the
other vocabulary kind, would be ignored, so they are usage errors.
``DNAPREP_SEED`` stands in for ``--seed`` when that is not given; a
value that is not an integer is a usage error.

Start-up stays flat as commands are added: importing this module and
building its parser load only the standard library and ``dnaprep.errors``
(the choice lists live in the package itself), and each subcommand
imports the modules it runs when it is dispatched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import GUIDING_TASKS, KMER, MASK_MODES, N_MODES, STD_ESTIMATORS, VOCAB_KINDS, WORD, __version__
from .errors import ConfigError, DataError, DnaPrepError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _env_int(name: str, given: int | None) -> int | None:
    value = os.environ.get(name)
    if given is not None or not value:
        return given
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _given(**settings) -> dict:
    """The settings given; None leaves the library's default."""
    return {name: value for name, value in settings.items() if value is not None}


def _refuse_ignored(reason: str, flags: dict) -> None:
    """A usage error naming each of ``flags`` that was given (neither None nor False) though ``reason`` ignores it."""
    ignored = [flag for flag, value in flags.items() if value is not None and value is not False]
    if ignored:
        raise ConfigError(f"{reason} ignores {' and '.join(ignored)}")


def _add_pipeline_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--vocab", required=True, help="vocabulary JSON file")
    sub.add_argument("--fasta", required=True, help="input FASTA (.gz accepted)")
    sub.add_argument("--out", required=True, help="output JSONL batch file")
    sub.add_argument("--n-mode", choices=N_MODES)
    sub.add_argument("--no-sentinels", action="store_true", help="do not wrap records in CLS/SEP")
    sub.add_argument("--p", type=float, help="masking probability")
    sub.add_argument("--mode", choices=MASK_MODES)
    sub.add_argument("--seed", type=int, help="master seed (env DNAPREP_SEED)")
    sub.add_argument("--window", type=int, help="max window length in bases")


def build_parser() -> _Parser:
    parser = _Parser(prog="dnaprep", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dnaprep {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build-vocab", parents=[], help="construct a vocabulary file")
    p.add_argument("--kind", choices=VOCAB_KINDS, required=True)
    p.add_argument("--k", type=int, help="token width for kmer/word vocabularies")
    p.add_argument("--include-n-tokens", action="store_true")
    p.add_argument("--fasta", help="training corpus (BPE only)")
    p.add_argument("--target-size", type=int, help="non-special vocabulary size (BPE only)")
    p.add_argument("--out", required=True)

    p = subs.add_parser("tokenize", help="encode FASTA records to token ids")
    p.add_argument("--vocab", required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-mode", choices=N_MODES)
    p.add_argument("--sentinels", action="store_true", help="wrap each record in CLS/SEP")
    p.add_argument("--window", type=int, default=0, help="split long records (0 = never)")

    p = subs.add_parser("mask", help="generate masked-prediction batches")
    _add_pipeline_args(p)

    p = subs.add_parser("guide", help="mask and attach guiding-task targets")
    _add_pipeline_args(p)
    p.add_argument(
        "--tasks",
        default="csp",
        help=f"comma-separated subset of {','.join(GUIDING_TASKS)}",
    )
    p.add_argument("--sop-prob", type=float, help="SOP swap probability")

    p = subs.add_parser("leakage", help="leakage analysis, closed-form or per batch")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, help="consecutive masked-token count")
    p.add_argument("--batch", help="batch JSONL: stream per-record leakage instead")

    p = subs.add_parser("vocab-stats", help="token frequency/entropy table")
    p.add_argument("--vocab", required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--n-mode", choices=N_MODES)
    p.add_argument("--accuracy", help="token_id,accuracy CSV for bucketing")

    p = subs.add_parser("cull", help="prune tokens into a [CULL]-bearing vocabulary")
    p.add_argument("--vocab", required=True)
    p.add_argument("--remove", required=True, help="comma-separated token ids, or @file with one id per line")
    p.add_argument("--out", required=True)

    p = subs.add_parser("benchstats", help="stability/validity gate over run tables")
    p.add_argument("--runs", required=True)
    p.add_argument("--scaling")
    p.add_argument("--sigma-threshold", type=float)
    p.add_argument("--r2-min", type=float)
    p.add_argument("--std", choices=STD_ESTIMATORS)
    p.add_argument("--out", help="write the JSON report here as well")

    return parser


def _cmd_build_vocab(args) -> int:
    from .atomic import atomic_output, refuse_input_overwrite
    from .core import build_kmer_vocab

    if args.kind in (KMER, WORD):
        _refuse_ignored(f"--kind {args.kind}", {"--fasta": args.fasta, "--target-size": args.target_size})
        if args.k is None:
            raise ConfigError("--k is required for kmer/word vocabularies")
        vocab = build_kmer_vocab(args.k, include_n_tokens=args.include_n_tokens, kind=args.kind)
    else:
        _refuse_ignored("--kind bpe", {"--k": args.k, "--include-n-tokens": args.include_n_tokens})
        if not args.fasta or args.target_size is None:
            raise ConfigError("--fasta and --target-size are required for BPE training")
        refuse_input_overwrite([args.out], {"--fasta": args.fasta})
        from .fasta import read_fasta
        from .tokenizers import bpe_train

        vocab = bpe_train(read_fasta(args.fasta), args.target_size)
    with atomic_output(args.out) as tmp:
        vocab.save(tmp)
    return EXIT_OK


def _cmd_tokenize(args) -> int:
    from .atomic import atomic_output, refuse_input_overwrite
    from .core import Vocabulary
    from .fasta import read_fasta
    from .tokenizers import TokenizerSpec, tokenize

    refuse_input_overwrite([args.out], {"--vocab": args.vocab, "--fasta": args.fasta})
    seqs = read_fasta(args.fasta)  # a generator: nothing is read yet
    if args.window:
        from .pipeline import iter_windows

        seqs = iter_windows(seqs, args.window)
    vocab = Vocabulary.load(args.vocab)
    spec = TokenizerSpec(vocab, **_given(n_mode=args.n_mode, add_sentinels=args.sentinels or None))
    with atomic_output(args.out) as tmp, open(tmp, "xb") as out:
        for seq in seqs:
            record = {"seq_id": seq.source_id, "ids": tokenize(seq, spec).tolist()}
            out.write((json.dumps(record, separators=(",", ":")) + "\n").encode())
    return EXIT_OK


def _cmd_mask(args, tasks: tuple[str, ...] = ()) -> int:
    from .pipeline import PipelineConfig, run_pipeline

    settings = _given(
        n_mode=args.n_mode,
        add_sentinels=False if args.no_sentinels else None,
        p=args.p,
        mode=args.mode,
        master_seed=_env_int("DNAPREP_SEED", args.seed),
        sop_reverse_prob=getattr(args, "sop_prob", None),
        window=args.window,
    )
    result = run_pipeline(PipelineConfig(args.vocab, args.fasta, args.out, guiding=tasks, **settings))
    print(f"{result.n_records} records -> {result.out_path} (sha256 {result.output_digest[:16]})")
    return EXIT_OK


def _cmd_guide(args) -> int:
    tasks = tuple(t.strip() for t in args.tasks.split(",") if t.strip())
    if "sop" not in tasks:
        _refuse_ignored(f"--tasks {','.join(tasks)}", {"--sop-prob": args.sop_prob})
    return _cmd_mask(args, tasks)


def _cmd_leakage(args) -> int:
    import dataclasses

    from .leakage import leakage_report, run_leakage

    for flag, value in (("--k", args.k), ("--m", args.m)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    if args.batch:
        _refuse_ignored("--batch", {"--m": args.m})
        with open(args.batch, "rb") as fh:
            for line_no, line in enumerate(fh, 1):
                try:
                    record = json.loads(line)
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise DataError(f"{args.batch}: line {line_no}: not a JSON record: {exc}") from None
                leakage = run_leakage(_record_targets(record), args.k)  # checks the record first
                out = {"seq_id": record.get("seq_id"), "leakage_percent": leakage}
                print(json.dumps(out, separators=(",", ":")))
        return EXIT_OK
    if args.m is None:
        raise ConfigError("either --m or --batch is required")
    print(json.dumps(dataclasses.asdict(leakage_report(args.k, args.m)), indent=2))
    return EXIT_OK


def _record_targets(record):
    """A batch record's targets ``m``, ascending and distinct.

    The record must hold a list of integer ``input_ids``, and every
    position it names in ``m``, ``m_in`` and ``labels`` must be an index
    of them; anything else is a DataError naming the record.
    """
    import numpy as np

    if not isinstance(record, dict):
        raise DataError(f"batch line holds a JSON {type(record).__name__}, not a record")
    name = record.get("seq_id")
    ids = record.get("input_ids")
    if not isinstance(ids, list) or not set(map(type, ids)) <= {int}:
        raise DataError(f"record {name!r}: input_ids must be a list of integer ids")
    labels = record.get("labels")
    if not isinstance(labels, dict):
        raise DataError(f"record {name!r}: labels must be an object of position: id")
    labeled = [int(pos) if pos.isdecimal() else pos for pos in labels]
    for field, positions in (("m", record.get("m")), ("m_in", record.get("m_in")), ("labels", labeled)):
        if not isinstance(positions, list):
            raise DataError(f"record {name!r}: {field} must be a list of positions")
        for pos in positions:
            if type(pos) is not int or not 0 <= pos < len(ids):
                raise DataError(
                    f"record {name!r}: {field} position {pos!r} is not an index of its {len(ids)} input ids"
                )
    return np.unique(np.array(record["m"], dtype=np.int64))


def _cmd_vocab_stats(args) -> int:
    from .atomic import atomic_output, refuse_input_overwrite
    from .core import Vocabulary
    from .fasta import read_fasta
    from .tokenizers import TokenizerSpec
    from .vocabstats import bucket_tokens, compute_token_stats, load_accuracy_csv, write_stats_csv

    refuse_input_overwrite([args.out], {"--vocab": args.vocab, "--fasta": args.fasta, "--accuracy": args.accuracy})
    vocab = Vocabulary.load(args.vocab)
    spec = TokenizerSpec(vocab, **_given(n_mode=args.n_mode))
    accuracy = load_accuracy_csv(args.accuracy, vocab) if args.accuracy else None
    stats = compute_token_stats(read_fasta(args.fasta), spec, accuracy=accuracy)
    buckets = bucket_tokens(stats) if accuracy else None
    with atomic_output(args.out) as tmp:
        write_stats_csv(tmp, stats, buckets)
    return EXIT_OK


def _cmd_cull(args) -> int:
    from .atomic import atomic_output, refuse_input_overwrite
    from .core import CullSpec, Vocabulary, cull_vocab

    id_file = args.remove[1:] if args.remove.startswith("@") else None
    refuse_input_overwrite([args.out, args.out + ".remap.json"], {"--vocab": args.vocab, "--remove": id_file})
    if id_file:
        ids = []
        with open(id_file) as fh:
            for line_no, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        ids.append(int(line))
                    except ValueError:
                        raise DataError(f"{id_file}: line {line_no}: not a token id: {line.strip()!r}") from None
    else:
        try:
            ids = [int(part) for part in args.remove.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"--remove must be comma-separated token ids, got {args.remove!r}") from None
    vocab = Vocabulary.load(args.vocab)
    culled, remap = cull_vocab(vocab, CullSpec(frozenset(ids)))
    # the remap is renamed into place first and the vocabulary last, so a
    # run that fails on either file leaves no new vocabulary behind
    with atomic_output(args.out) as vocab_tmp, atomic_output(args.out + ".remap.json") as remap_tmp:
        culled.save(vocab_tmp)
        with open(remap_tmp, "x") as fh:
            json.dump({str(k): v for k, v in sorted(remap.items())}, fh, indent=1)
            fh.write("\n")
    return EXIT_OK


def _cmd_benchstats(args) -> int:
    from .atomic import atomic_output, refuse_input_overwrite
    from .benchstats import check_thresholds, criteria_report, load_runs_csv, load_scaling_csv

    thresholds = _given(sigma_threshold=args.sigma_threshold, r2_min=args.r2_min)
    check_thresholds(**thresholds)
    if args.out:
        refuse_input_overwrite([args.out], {"--runs": args.runs, "--scaling": args.scaling})
    runs = load_runs_csv(args.runs)
    scaling = load_scaling_csv(args.scaling) if args.scaling else ()
    report = criteria_report(runs, scaling, **thresholds, **_given(estimator=args.std))
    print(report.to_table())
    print(f"selected: {', '.join(report.selected) if report.selected else '(none)'}")
    if args.out:
        with atomic_output(args.out) as tmp, open(tmp, "x") as fh:
            fh.write(report.to_json() + "\n")
    return EXIT_OK


_COMMANDS = {
    "build-vocab": _cmd_build_vocab,
    "tokenize": _cmd_tokenize,
    "mask": _cmd_mask,
    "guide": _cmd_guide,
    "leakage": _cmd_leakage,
    "vocab-stats": _cmd_vocab_stats,
    "cull": _cmd_cull,
    "benchstats": _cmd_benchstats,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # downstream consumer closed (e.g. piping into head); not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except DnaPrepError as exc:
        _report_error(exc)
        return getattr(exc, "exit_code", EXIT_DATA)
    except ValueError as exc:
        _report_error(exc)
        return EXIT_DATA
    except OSError as exc:
        _report_error(exc)
        return EXIT_DATA


def _report_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
