"""Atomic file output: a writer fills a temporary name that replaces the target only on success."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator, Mapping

from .errors import ConfigError


def refuse_input_overwrite(outputs: Iterable[str], inputs: Mapping[str, str | None]) -> None:
    """Raise ConfigError when an output names one of ``inputs`` (name -> path; None is skipped).

    Paths are compared after resolving links, so another name for an
    input is caught too. Call it before any input is read.
    """
    named = {os.path.realpath(path): name for name, path in inputs.items() if path}
    for path in outputs:
        name = named.get(os.path.realpath(path))
        if name:
            raise ConfigError(f"output {path!r} is the input {name}; it would be overwritten")


@contextmanager
def atomic_output(path: str) -> Iterator[str]:
    """Yield a fresh name beside ``path``, renamed onto it only on success.

    The name shares ``path``'s directory, so the os.replace is atomic; on
    any exception the temporary file is removed and ``path`` is untouched.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
