"""Two-stream convolutional segmentation network on a numpy autodiff core."""

import os

# BLAS thread pools must be pinned before numpy loads its backend, so this
# runs at package import time. CSDN_THREADS=0 selects single-threaded
# deterministic mode; unset leaves the backend defaults alone.
_threads = os.environ.get("CSDN_THREADS")
if _threads is not None:
    try:
        _n = int(_threads)
    except ValueError:
        _n = None
    if _n is not None:
        if _n <= 0:
            _n = 1
        for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[_var] = str(_n)


def _steady_heap() -> bool:
    """Fix glibc malloc's mmap threshold at 32 MiB and its trim threshold
    at 64 MiB. By default both float: glibc raises the mmap threshold
    when a large block is freed and returns freed heap top to the kernel,
    so the same feature-map sizes get mapped, faulted in and unmapped again
    on every training step. Returns whether the setting took; where libc
    or mallopt is missing nothing is set."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's malloc.h
    return bool(mallopt(m_mmap_threshold, 32 << 20)
                and mallopt(m_trim_threshold, 64 << 20))


STEADY_HEAP = _steady_heap()

__version__ = "0.1.0"
