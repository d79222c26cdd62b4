"""Atomic file output: a writer fills a temporary name that replaces the target only on success."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import Iterator


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
