"""File helpers: strict UTF-8 reads, comment-aware line reading, the rows
of the tab-separated artifacts, atomic writes, digests."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

from .errors import PipelineError


def read_text_strict(path: str | os.PathLike[str]) -> str:
    """Read a UTF-8 file without its byte-order mark, if any, reporting the
    line number of any bad byte."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw[: exc.start].count(b"\n") + 1
        raise PipelineError(f"{path}: invalid UTF-8 at line {line}") from exc


def iter_data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (lineno, payload) skipping blanks; '#' starts a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        payload = line.split("#", 1)[0].strip()
        if payload:
            yield lineno, payload


def read_rows(
    path: str, width: int, error: str = "expected {width} fields at line {lineno}"
) -> Iterator[tuple[int, list[str]]]:
    """(lineno, fields) of each non-blank line of the tab-separated artifact
    at `path`, its fields as written. A line of other than `width` fields
    is fatal: `error`, formatted with `width` and `lineno`, after the path."""
    for lineno, line in enumerate(read_text_strict(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise PipelineError(f"{path}: " + error.format(width=width, lineno=lineno))
        yield lineno, fields


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    """`atomic_write_bytes` of `text` in UTF-8."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | os.PathLike[str], data: bytes) -> None:
    """Write `data` to `path` via a temp file + rename in the same directory.

    Readers never observe a partially written file. The file gets the mode
    `open()` would give it: 0666 less the umask. A write or rename that
    fails, as onto a directory in the way, is a `PipelineError` naming
    `path`, and the temp file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:  # a name another writer holds: draw again
            continue
        break
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise PipelineError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def sha256_file(path: str | os.PathLike[str]) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
