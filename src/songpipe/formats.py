"""Readers shared by every file format: files, versioned JSON documents, line tables."""
from __future__ import annotations

import json
from collections.abc import Iterator


def read_file(path, parse, error: type[ValueError] = ValueError, mode: str = "r"):
    """``parse`` of the file's UTF-8 text (its bytes in mode ``"rb"``).

    An ``error`` from reading or parsing is raised again naming ``path``.
    """
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            return parse(fh.read())
    except error as exc:  # a UnicodeDecodeError is a ValueError too
        raise error(f"cannot read {path}: {exc}") from exc


def read_document(text: str | bytes, name: str, version: int, build,
                  error: type[ValueError] = ValueError):
    """``build(doc)`` of the JSON object ``text`` (bytes are UTF-8) tagged ``name``, ``version``.

    Anything wrong is raised as ``error``, including a ``KeyError``,
    ``TypeError``, ``ValueError`` or ``OverflowError`` (``int`` of ``1e400``)
    from ``build``.
    """
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
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


def data_lines(text: str, what: str, columns: int) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` of each line that is not blank or a ``#`` comment.

    A line without exactly ``columns`` fields is a ``ValueError`` naming the ``what`` line.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != columns:
            raise ValueError(f"{what} line {lineno}: expected {columns} columns, got {len(fields)}")
        yield lineno, fields
