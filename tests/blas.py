"""The OpenBLAS kernel a test runs on, for the tests whose bits depend on it.

OpenBLAS picks its GEMM kernel at run time: SkylakeX on x86 CPUs with
AVX-512, Haswell on those with AVX2 but no AVX-512. ``OPENBLAS_CORETYPE``
forces one in the process that sets it and in the processes it starts.
Only on SkylakeX does a GEMM row keep its bits at any row count and row
position (README, Determinism).
"""

import ctypes
import functools

import numpy.testing as npt

from vtfpar.parallel import OPENBLAS


def cpu_has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            return any(line.startswith("flags") and "avx2" in line.split() for line in f)
    except OSError:
        return False


@functools.cache
def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs in this process, "?" if unknown."""
    corename = getattr(OPENBLAS, "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "?"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def assert_equal_on_skylakex(actual, expected, atol: float) -> None:
    """``actual`` equals ``expected`` bitwise on the SkylakeX kernel, and
    within ``atol`` on any other, where a row's rounding depends on the
    shape of its GEMM."""
    if blas_core() == "SkylakeX":
        npt.assert_array_equal(actual, expected)
    else:
        npt.assert_allclose(actual, expected, rtol=0, atol=atol)
