"""The ``pnclab-<kind> v1`` text layout shared by catalogs, stores and tables.

A file is a magic line, then ``key=value`` header lines (``none`` stands for
None), then one body line per record; blank lines are ignored.  The formats
differ only in their header keys and in how a body line encodes a record.
Reading streams the body, so a large table is never held twice.
"""
from __future__ import annotations

import contextlib
import itertools
from typing import Iterable, Iterator


def write_v1(path: str, kind: str, header: dict, body: Iterable[str]) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(f"pnclab-{kind} v1\n")
        f.writelines(f"{key}={'none' if value is None else value}\n" for key, value in header.items())
        f.writelines(line + "\n" for line in body)


@contextlib.contextmanager
def read_v1(path: str, kind: str) -> Iterator[tuple[dict[str, str | None], Iterator[str]]]:
    """Open a v1 file of ``kind``; yield its header and an iterator over its body lines."""
    with open(path, "r", encoding="ascii") as f:
        lines = (ln.rstrip("\n") for ln in f if ln.strip())
        if next(lines, None) != f"pnclab-{kind} v1":
            raise ValueError(f"not a pnclab-{kind} v1 file: {path}")
        header: dict[str, str | None] = {}
        for ln in lines:
            key, sep, value = ln.partition("=")
            if not (sep and key.isidentifier()):
                yield header, itertools.chain((ln,), lines)
                return
            header[key] = None if value == "none" else value
        yield header, iter(())


def opt_int(value: str | None) -> int | None:
    return None if value is None else int(value)


def check_count(path: str, what: str, expected: int, found: int) -> None:
    if found != expected:
        raise ValueError(f"{path}: expected {expected} {what}, found {found}")


def strip_index(path: str, line: str, sep: str, position: int) -> str:
    """The rest of a body line that starts with its record index and ``sep``;
    refuses an index other than the record's position in the file."""
    index, found, rest = line.partition(sep)
    if not found or index.strip() != str(position):
        raise ValueError(f"{path}: record {position} carries index {index.strip()!r}")
    return rest
