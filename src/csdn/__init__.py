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


def _flush_subnormals() -> bool:
    """Set FTZ and DAZ in this thread's MXCSR on x86-64 glibc: a float
    result that would be subnormal is zero, and a subnormal input reads as
    zero. Deep sigmoid gates underflow at large sizes, and SSE/AVX
    arithmetic on subnormals runs several times slower than on normal
    values. Returns whether the setting took; elsewhere nothing is set."""
    import ctypes
    import os

    try:
        if (os.uname().machine != "x86_64" or not
                os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")):
            return False
        libc = ctypes.CDLL(None)
        fegetenv, fesetenv = libc.fegetenv, libc.fesetenv
    except (AttributeError, OSError, TypeError, ValueError):
        return False
    env = ctypes.create_string_buffer(32)  # glibc's x86-64 fenv_t
    for fn in (fegetenv, fesetenv):
        fn.argtypes, fn.restype = [ctypes.c_char_p], ctypes.c_int
    if fegetenv(env) != 0:
        return False
    mxcsr = ctypes.c_uint32.from_buffer(env, 28)  # fenv_t.__mxcsr
    mxcsr.value |= 0x8040  # FTZ (bit 15) | DAZ (bit 6)
    return fesetenv(env) == 0


STEADY_HEAP = _steady_heap()
FLUSH_SUBNORMALS = _flush_subnormals()

__version__ = "0.1.0"
