"""The ``pnclab-<kind> v<version>`` text layout shared by catalogs, stores and tables.

A file is a magic line, then ``key=value`` header lines (``none`` stands for
None), then one body line per record; blank lines are ignored.  The formats
differ only in their header keys and in how a body line encodes a record.
Reading streams the body, so a large table is never held twice.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
from typing import Iterable, Iterator

from .modulation import BITS_PER_SYMBOL, Constellation, make_constellation

# the command that writes each kind of file, named when a file of another version is refused
_WRITERS = {"pnclab-sfs-catalog": "pnclab sfs list --out …", "pnclab-store": "pnclab offline --out …",
            "pnclab-table": "pnclab table --store …"}


def write_artifact(path: str, magic: str, header: dict, body: Iterable[str]) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{magic}\n")
        f.writelines(f"{key}={'none' if value is None else value}\n" for key, value in header.items())
        f.writelines(line + "\n" for line in body)


class _Header(dict):
    """Header values by key; a key the file lacks is refused."""

    def __missing__(self, key: str):
        raise ValueError(f"the header has no {key}= line")


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
            raise ValueError(f"it is a {found} file, not {magic}: rebuild it with `{_WRITERS[kind]}`")
        if found != magic:
            raise ValueError(f"not a {magic} file")
        header = _Header()
        for ln in lines:
            key, sep, value = ln.partition("=")
            if not (sep and key.isidentifier()):
                yield header, itertools.chain((ln,), lines)
                return
            header[key] = None if value == "none" else value
        yield header, iter(())


def names_its_file(load):
    """The loader ``load(path)`` with every ValueError it raises naming the
    file, as the prefix of its message; the messages leave the path to it."""
    @functools.wraps(load)
    def wrapped(path: str):
        try:
            return load(path)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return wrapped


def constellation_of(header: dict) -> Constellation:
    """The constellation that a header's ``modulation=`` names.  A ``mu=``
    other than twice its bits per symbol, in a file that has one, is refused
    (an unknown modulation has none), and so is a ``labeling=`` other than
    the constellation's."""
    modulation = header["modulation"]
    if "mu" in header and header_int(header, "mu") != 2 * BITS_PER_SYMBOL.get(modulation, 0):
        raise ValueError(f"mu={header['mu']} is not twice the bits per symbol of modulation {modulation!r}")
    c = make_constellation(modulation)
    if header["labeling"] != c.labeling_version:
        raise ValueError(f"labeling {header['labeling']} is not {c.name}'s {c.labeling_version}")
    return c


def header_int(header: dict, key: str, optional: bool = False) -> int | None:
    """The integer that a header's ``key=`` holds.  ``none`` reads as None
    where the key is ``optional``; elsewhere it is refused with the key, as
    is a value that is not an integer."""
    value = header[key]
    if value is None and optional:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key}={'none' if value is None else value} is not an integer") from None


def check_count(what: str, expected: int, found: int) -> None:
    if found != expected:
        raise ValueError(f"expected {expected} {what}, found {found}")


def strip_index(line: str, sep: str, position: int) -> str:
    """The rest of a body line that starts with its record index and ``sep``;
    refuses an index other than the record's position in the file."""
    index, found, rest = line.partition(sep)
    if not found or index.strip() != str(position):
        raise ValueError(f"record {position} carries index {index.strip()!r}")
    return rest


def records(body: Iterator[str], word: str, count: int) -> Iterator[str]:
    """The rest of each of the next ``count`` body lines, ``<word> <index> @ <rest>``."""
    return (strip_index(next(body, "").removeprefix(f"{word} "), " @ ", k) for k in range(count))
