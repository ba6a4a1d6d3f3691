"""Small file helpers. Text inputs are decoded line by line, so a line that
is not UTF-8 is reported by file and line; all outputs go through
temp-file + rename so interrupted runs never leave truncated artifacts."""

from __future__ import annotations

import os
import tempfile


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


def atomic_write_bytes(path, data: bytes):
    path = str(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))
