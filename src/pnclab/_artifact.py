"""The ``pnclab-<kind> v<version>`` text layout shared by catalogs, stores and tables.

A file is a magic line, then ``key=value`` header lines (``none`` stands for
None), then one body line per record; blank lines are ignored.  The formats
differ only in their header keys and in how a body line encodes a record.
Reading streams the body, so a large table is never held twice.
"""
from __future__ import annotations

import contextlib
import itertools
from typing import Iterable, Iterator

# the command that writes each kind of file, named when a file of another version is refused
_WRITERS = {"pnclab-sfs-catalog": "pnclab sfs list --out …", "pnclab-store": "pnclab offline --out …",
            "pnclab-table": "pnclab table --store …"}


def write_artifact(path: str, magic: str, header: dict, body: Iterable[str]) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{magic}\n")
        f.writelines(f"{key}={'none' if value is None else value}\n" for key, value in header.items())
        f.writelines(line + "\n" for line in body)


class _Header(dict):
    """Header values by key; a key the file lacks is refused, naming the file."""

    path = ""

    def __missing__(self, key: str):
        raise ValueError(f"{self.path}: the header has no {key}= line")


@contextlib.contextmanager
def read_artifact(path: str, magic: str) -> Iterator[tuple[dict[str, str | None], Iterator[str]]]:
    """Open a file whose first line is ``magic``; yield its header and an
    iterator over its body lines.  Another version of the kind is refused
    with the command that writes the current one, and reading a key the
    header lacks raises ValueError."""
    with open(path, "r", encoding="ascii") as f:
        lines = (ln.rstrip("\n") for ln in f if ln.strip())
        found, kind = next(lines, ""), magic.split(" ")[0]
        if found != magic and found.startswith(f"{kind} v"):
            raise ValueError(f"{path} is a {found} file, not {magic}: rebuild it with `{_WRITERS[kind]}`")
        if found != magic:
            raise ValueError(f"not a {magic} file: {path}")
        header = _Header()
        header.path = path
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


def records(path: str, body: Iterator[str], word: str, count: int) -> Iterator[str]:
    """The rest of each of the next ``count`` body lines, ``<word> <index> @ <rest>``."""
    return (strip_index(path, next(body, "").removeprefix(f"{word} "), " @ ", k) for k in range(count))
