"""Two-stream convolutional segmentation network on a numpy autodiff core."""


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
