"""The OpenBLAS build that numpy loaded, for tests whose bytes depend on it."""

from __future__ import annotations

import ctypes
import functools

import numpy  # noqa: F401  (maps numpy's OpenBLAS into the process)


@functools.lru_cache(maxsize=None)
def openblas_config() -> str | None:
    """OpenBLAS's `*_get_config*` string, such as "OpenBLAS 0.3.31.188.0
    USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64": its
    version and the kernel set it picked. None where no OpenBLAS is mapped
    (macOS, another BLAS). The library is found as
    `features.openblas_threads` finds it."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in map(ctypes.CDLL, libs):
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_config is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return get_config().decode()
    return None


def kernel_set() -> str | None:
    """The kernel set in the config string ("SkylakeX", "Haswell", ...), or
    None without OpenBLAS. OpenBLAS writes it last, before MAX_THREADS=n
    in a threaded build."""
    config = openblas_config()
    if config is None:
        return None
    return [word for word in config.split() if not word.startswith("MAX_THREADS=")][-1]
