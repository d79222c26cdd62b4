"""Spans around dnaprep's public functions, recorded from outside.

The program has no tracing of its own. ``traced`` swaps the names that
dnaprep's modules look up at call time for wrappers that record a span
(name, start, end, parent) in memory, and puts the originals back on
exit. Generators are timed per item, so a span covers the work of one
``next()`` and never the generator's creation. Only the calling thread
is traced; the pipeline runs with one thread while it is.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import dnaprep
import dnaprep.fasta
import dnaprep.pipeline
import dnaprep.vocabstats


class Tracer:
    """Spans as [name, start, end, parent index or -1], plus kept results."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kept: dict[str, list] = {}
        self.keeping = True
        self._open: list[int] = []

    def _enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, keep: bool = False):
        """``fn`` with a span around every call; ``keep`` stores results while ``keeping``."""
        kept = self.kept.setdefault(name, []) if keep else None

        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if kept is not None and self.keeping:
                kept.append(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        """Generator function ``fn`` with a span around every item it yields."""

        def traced(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                span = self._enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._exit(span)
                yield item

        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus that of their direct children."""
        own = {i for i, span in enumerate(self.spans) if span[0] == name}
        children = sum(end - start for _, start, end, parent in self.spans if parent in own)
        return self.total(name) - children

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


# (module, attribute, span name, is a generator, keep results)
_TARGETS = (
    (dnaprep, "run_pipeline", "pipeline.run_pipeline", False, False),
    (dnaprep, "compute_token_stats", "vocabstats.compute_token_stats", False, False),
    (dnaprep, "read_fasta", "fasta.read_fasta", True, False),
    (dnaprep.pipeline, "iter_windows", "pipeline.iter_windows", True, False),
    (dnaprep.pipeline, "build_record", "pipeline.build_record", False, False),
    (dnaprep.pipeline, "DnaSequence", "core.DnaSequence", False, True),
    (dnaprep.pipeline, "tokenize", "tokenizers.tokenize", False, True),
    (dnaprep.pipeline, "select_targets", "masking.select_targets", False, False),
    (dnaprep.pipeline, "neighbor_mask", "masking.neighbor_mask", False, True),
    (dnaprep.pipeline, "sop_transform", "guiding.sop_transform", False, True),
    (dnaprep.pipeline, "ftm_targets", "guiding.ftm_targets", False, True),
    (dnaprep.pipeline, "mst_apply", "guiding.mst_apply", False, True),
    (dnaprep.pipeline, "csp_targets", "guiding.csp_targets", False, True),
    (dnaprep.fasta, "read_fasta", "fasta.read_fasta", True, False),
    (dnaprep.fasta, "DnaSequence", "core.DnaSequence", False, True),
    (dnaprep.vocabstats, "tokenize", "tokenizers.tokenize", False, True),
)


@contextmanager
def traced(tracer: Tracer):
    """Route dnaprep's internal calls through ``tracer`` for the duration."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in _TARGETS]
    try:
        for module, attr, name, is_gen, keep in _TARGETS:
            fn = getattr(module, attr)
            setattr(module, attr, tracer.wrap_iter(name, fn) if is_gen else tracer.wrap(name, fn, keep))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
