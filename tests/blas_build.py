"""The OpenBLAS build that numpy loaded, for tests whose bytes depend on it."""

from __future__ import annotations

import ctypes

from dvmer import features as F


def openblas_config() -> str | None:
    """OpenBLAS's `*_get_config*` string, such as "OpenBLAS 0.3.31.188.0
    USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64": its
    version and the kernel set it picked; None without OpenBLAS."""
    get_config = F.openblas("get_config")
    if get_config is None:
        return None
    get_config.restype = ctypes.c_char_p
    return get_config().decode()


def kernel_set() -> str | None:
    """The kernel set in the config string ("SkylakeX", "Haswell", ...), or
    None without OpenBLAS. OpenBLAS writes it last, before MAX_THREADS=n
    in a threaded build."""
    config = openblas_config()
    if config is None:
        return None
    return [word for word in config.split() if not word.startswith("MAX_THREADS=")][-1]
