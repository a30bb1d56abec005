"""Worker-pool helper; VTFPAR_THREADS caps the thread count."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from .errors import UsageError

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """``VTFPAR_THREADS`` if set and non-empty (a positive integer), else
    the CPU count capped at 4."""
    env = os.environ.get("VTFPAR_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise UsageError(f"VTFPAR_THREADS must be a positive integer, got {env!r}")
        return n
    return max(1, min(4, os.cpu_count() or 1))


def map_indexed(fn: Callable[[int], R], n: int) -> list[R]:
    """Apply ``fn`` to 0..n-1, preserving index order in the result.

    Work items must be independent; results do not depend on scheduling.
    """
    workers = worker_count()
    if workers == 1 or n <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))
