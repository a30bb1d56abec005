"""Worker-pool helper; VTFPAR_THREADS caps the thread count. Importing it
also runs numpy's OpenBLAS on one thread, so that the pool is the one
source of parallelism, and pins glibc malloc's mmap and trim thresholds
for the process."""

from __future__ import annotations

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

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


def _pin_malloc_thresholds() -> None:
    """Keep freed chunk temporaries in the heap, on glibc only.

    glibc's dynamic thresholds settle near the largest array freed early
    (one vision chunk's 2.5 MB MLP output), far below the ~14 MB a chunk
    touches, so the heap top is returned to the kernel after every chunk
    and the next chunk faults it in again: about 313 minor faults per
    clip on every pass of the frozen feature cache. M_MMAP_THRESHOLD is
    set to 32 MiB, the ceiling of glibc's own dynamic threshold on 64-bit,
    and M_TRIM_THRESHOLD to twice that, the ratio of glibc's dynamic rule;
    a process may then keep up to 64 MiB of freed heap. No computed value
    changes. Skipped when the user tunes malloc through the environment.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc or not libc.startswith("glibc "):
        return
    if any(name in os.environ for name in
           ("GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled scipy-openblas library, None where numpy has none."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    return ctypes.CDLL(libs[0]) if len(libs) == 1 else None


OPENBLAS = _numpy_openblas()


def _pin_blas_threads() -> None:
    """Run every GEMM on its caller's thread.

    Split between OpenBLAS threads, a large GEMM rounds differently, so
    checkpoints of unfrozen training, and of frozen training at larger
    batches, would depend on OPENBLAS_NUM_THREADS, and its threads would
    compete with the worker pool's. The pin overrides OPENBLAS_NUM_THREADS.
    Skipped where numpy is not linked to scipy-openblas, or its library
    lacks the symbol.
    """
    set_threads = getattr(OPENBLAS, "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads(1)


_pin_malloc_thresholds()
_pin_blas_threads()
