"""Rules shared by every file format: atomic writes, hashes, JSON documents, data lines."""
from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator
from contextlib import contextmanager, suppress


@contextmanager
def replacing(path):
    """A binary file that replaces ``path`` only if the ``with`` block succeeds.

    It is written under the fixed name ``.NAME.tmp`` beside ``path`` and moved
    into place with :func:`os.replace`.  On any exception the temporary file
    is removed and ``path`` is left as it was.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_file(path, data: str | bytes) -> None:
    """Write ``data`` to ``path`` atomically (see :func:`replacing`); text is UTF-8."""
    with replacing(path) as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def file_sha256(path) -> str:
    """SHA-256 of a file, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def json_text(doc) -> str:
    """``doc`` as JSON with sorted keys, indented by 2, and a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def read_file(path, parse, error: type[ValueError] = ValueError, mode: str = "r",
              name: str | None = None):
    """``parse`` of the file's UTF-8 text, a leading byte-order mark skipped (its bytes in
    mode ``"rb"``).

    An ``error`` from reading or parsing is raised again naming ``name``,
    by default ``path``.
    """
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8-sig") as fh:
            return parse(fh.read())
    except error as exc:  # a UnicodeDecodeError is a ValueError too
        raise error(f"cannot read {name or path}: {exc}") from exc


def read_document(text: str | bytes, name: str, version: int, build,
                  error: type[ValueError] = ValueError):
    """``build(doc)`` of the JSON object ``text`` tagged ``name``, ``version``; bytes are
    UTF-8, a leading byte-order mark skipped.

    Anything wrong is raised as ``error``, including a ``KeyError``,
    ``TypeError``, ``ValueError`` or ``OverflowError`` (``int`` of ``1e400``)
    from ``build``.
    """
    try:
        doc = json.loads(text.decode("utf-8-sig") if isinstance(text, bytes) else text)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise error(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != name:
        raise error(f"missing or wrong format tag, expected {name!r}")
    if doc.get("version") != version:
        raise error(f"unsupported {name} version {doc.get('version')!r}")
    try:
        return build(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"malformed {name} document: {exc}") from exc


def typed(value, kind: type, name: str):
    """``value``, a JSON document's field ``name``, as ``kind``: int takes an integer or a
    whole-number float (the config's rule), float any number and str a string.  Anything
    else, a bool included, is a ``ValueError`` naming ``name``."""
    if type(value) is kind or type(value) in (int, float) and (
            kind is float or kind is int and float(value).is_integer()):
        return kind(value)
    words = {int: "a whole number", float: "a number", str: "a string"}[kind]
    raise ValueError(f"{name} must be {words}, got {value!r}")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` of each line that is not blank or a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def data_lines(text: str, what: str, columns: int) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` of each of the :func:`content_lines` of ``text``.

    A line without exactly ``columns`` fields is a ``ValueError`` naming the ``what`` line.
    """
    for lineno, line in content_lines(text):
        fields = line.split()
        if len(fields) != columns:
            raise ValueError(f"{what} line {lineno}: expected {columns} columns, got {len(fields)}")
        yield lineno, fields
