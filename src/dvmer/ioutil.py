"""File helpers and the binary layout of caches and checkpoints.

Text inputs are decoded line by line, so a bad byte is reported by file and
line. Every output goes through temp-file + rename, so an interrupted run
leaves no truncated file. A binary file is 4 magic bytes, a u32 version and
a body with no byte after it. An array is a u8 dtype tag, u8 rank, u32 dims
and the row-major little-endian payload; an array table is a u32 count, then
per entry a u16 name length, the UTF-8 name and one array. All integers are
little-endian."""

from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile

import numpy as np

_DTYPE_TAGS = {0: np.float32, 1: np.float64, 2: np.int64, 3: np.uint8}
_TAG_FOR_DTYPE = {np.dtype(v): k for k, v in _DTYPE_TAGS.items()}


def text_lines(path, error):
    """(line number, line without its end) for each line of the UTF-8 text
    file at path, split where text mode splits; a line that does not decode
    raises error naming path:line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{lineno}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """The open hidden temp file beside path, renamed onto path once the
    block ends; on an error it is removed instead, and an OSError names
    path, not the temp file. mode and kwargs are those of open."""
    path = str(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix="~")
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def atomic_write_bytes(path, data: bytes):
    with atomic_open(path) as fh:
        fh.write(data)


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def pack_array(arr) -> bytes:
    """One array in the array layout; booleans are stored as uint8. A 0-d
    array keeps rank 0."""
    arr = np.asarray(arr)
    if arr.dtype == np.bool_:
        arr = arr.astype(np.uint8)
    tag = _TAG_FOR_DTYPE.get(arr.dtype)
    if tag is None:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    header = struct.pack(f"<BB{arr.ndim}I", tag, arr.ndim, *arr.shape)
    return header + arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()


def pack_array_table(named: dict) -> bytes:
    """A name -> ndarray mapping in the array-table layout."""
    parts = [struct.pack("<I", len(named))]
    for name, arr in named.items():
        raw = name.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw, pack_array(arr)]
    return b"".join(parts)


def write_framed(path, magic: bytes, version: int, body: list):
    """Write magic, the u32 version and the body's byte strings to path atomically."""
    atomic_write_bytes(path, b"".join([magic, struct.pack("<I", version), *body]))


def open_framed(path, magic: bytes, version: int, error: type[Exception], kind: str) -> BinaryReader:
    """A reader over the file at path, past its magic and version; another
    magic or version raises error naming path and kind."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != magic:
        raise error(f"{path}: not a {kind} (bad magic)")
    reader = BinaryReader(memoryview(buf), str(path), error, offset=4)
    (found,) = reader.unpack("<I")
    if found != version:
        raise error(f"{path}: unsupported {kind} version {found}")
    return reader


class BinaryReader:
    """Bounds-checked cursor over a binary buffer; a short read, undecodable
    text, an unknown dtype tag, a repeated table name or stray bytes raise
    `error` naming `source`. Over a memoryview, `take` returns views, so only
    the arrays are copied out of the buffer."""

    def __init__(self, buf: bytes | memoryview, source: str, error: type[Exception], offset: int = 0):
        self.buf = buf
        self.source = source
        self.error = error
        self.offset = offset

    def take(self, n: int) -> bytes | memoryview:
        if self.offset + n > len(self.buf):
            raise self.error(
                f"{self.source}: truncated: needs {n} byte(s) at offset {self.offset}, has {len(self.buf) - self.offset}"
            )
        self.offset += n
        return self.buf[self.offset - n:self.offset]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, encoding: str = "utf-8") -> str:
        start = self.offset
        try:
            return str(self.take(n), encoding)
        except UnicodeDecodeError as exc:
            raise self.error(f"{self.source}: undecodable text at offset {start}") from exc

    def array(self, dtypes: dict, what: str) -> np.ndarray:
        """One array in the array layout, its tag looked up in dtypes."""
        tag, rank = self.unpack("<BB")
        if tag not in dtypes:
            raise self.error(f"{self.source}: unknown dtype tag {tag} for {what}")
        dims = self.unpack(f"<{rank}I")
        dtype = np.dtype(dtypes[tag])
        raw = self.take(math.prod(dims) * dtype.itemsize)
        try:
            return np.frombuffer(raw, dtype=dtype.newbyteorder("<")).reshape(dims).astype(dtype)
        except ValueError as exc:  # a rank above numpy's limit, or a zero-size shape too big to index
            raise self.error(f"{self.source}: unusable rank-{rank} shape for {what}: {exc}") from exc

    def table(self) -> dict:
        """A name -> ndarray mapping in the array-table layout."""
        (count,) = self.unpack("<I")
        named = {}
        for _ in range(count):
            (name_len,) = self.unpack("<H")
            name = self.text(name_len)
            if name in named:
                raise self.error(f"{self.source}: repeated name '{name}'")
            named[name] = self.array(_DTYPE_TAGS, f"'{name}'")
        return named

    def done(self, after: str):
        """Raise unless every byte has been read; after names the last field."""
        if self.offset != len(self.buf):
            raise self.error(f"{self.source}: {len(self.buf) - self.offset} stray byte(s) after {after}")
