"""Line-delimited JSON, the one text format of every qadb file.

One JSON object per line, with sorted keys and raw UTF-8, so reruns write
identical bytes. Whole files, the binary retrieval image too, are replaced
atomically; an append-only log drops a last line torn by a crash when it
is reopened. A reader states the shape and rules of its records, and
``check`` refuses a record that breaks either, naming its line.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import BinaryIO, TextIO

from .errors import ParseError


def dumps(record) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def loads(text: str | bytes):
    return json.loads(text)


def parse_lines(
    lines: Iterable[str], source: str = "", error: type[Exception] = ParseError
) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, record)`` per non-blank line; bad lines raise ``error``.

    So does text that is not UTF-8, which ``lines`` raises while decoding,
    and a string escape such as ``"\\ud800"`` that UTF-8 cannot encode.
    """
    prefix = f"{source}: " if source else ""
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line or line.isspace():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{prefix}line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise error(f"{prefix}line {lineno}: record is not an object")
            if "\\u" in line:  # only an escape can decode to a lone surrogate
                try:
                    dumps(record).encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise error(f"{prefix}line {lineno}: a lone surrogate escape "
                                f"({exc.object[exc.start]!a}) is not text") from exc
            yield lineno, record
    except UnicodeDecodeError as exc:
        raise error(f"{prefix}not UTF-8 text ({exc.reason})") from exc


def fits(value, shape) -> bool:
    """Whether ``value`` has ``shape``: a type or tuple of types, ``[shape]`` for
    an array of such values, or ``{key: shape}`` for an object with such keys."""
    if isinstance(shape, list):
        return isinstance(value, list) and all(fits(item, shape[0]) for item in value)
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(fits(value.get(k), s) for k, s in shape.items())
    return isinstance(value, shape) and (shape is bool or not isinstance(value, bool))


def check(record: dict, shape: dict, source, lineno: int, error=ParseError, make=None):
    """``make(record)``, or ``record`` if no ``make``, when it has ``shape``. Its first bad
    field, or a ``ValueError`` from ``make``, raises ``error`` as ``<source>: line N: <why>``."""
    try:
        for key, kind in shape.items():
            if not fits(record.get(key), kind):
                raise ValueError(f"missing or mistyped field {key!r}")
        return record if make is None else make(record)
    except ValueError as exc:
        where = f"{source}: line {lineno}" if source else f"line {lineno}"
        raise error(f"{where}: {exc}") from exc


def read(
    source: str | Path | TextIO, error: type[Exception] = ParseError
) -> Iterator[tuple[int, dict]]:
    """The records of the file at path ``source``, or of a text handle open on one."""
    # File iteration splits at newlines only; str.splitlines would also
    # split inside records at the U+2028 that ``dumps`` leaves unescaped.
    with nullcontext(source) if hasattr(source, "read") else open(source, encoding="utf-8") as fh:
        yield from parse_lines(fh, str(getattr(fh, "name", source)), error)


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle on a temporary sibling, renamed over ``path`` when synced."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write(path: str | Path, records: Iterable) -> None:
    """Replace ``path`` by one line per record: a reader sees the old file or the new."""
    with replacing(path) as fh:
        for record in records:
            fh.write((dumps(record) + "\n").encode("utf-8"))


def open_log(path: str | Path) -> tuple[list[tuple[int, dict]], TextIO]:
    """An append-only log's ``(lineno, record)`` pairs and a handle to append to it.

    Records are appended whole with their newline, so a last line without
    one was torn by a crash; it is cut off, and the next append starts on
    a fresh line.
    """
    with open(path, "a+b") as fh:
        fh.seek(0)
        data = fh.read()
        complete = data.rfind(b"\n") + 1
        fh.truncate(complete)
    lines = (line.decode("utf-8") for line in data[:complete].split(b"\n"))
    return list(parse_lines(lines, str(path))), open(path, "a", encoding="utf-8", newline="\n")
