"""The one line reader behind every input format."""

from __future__ import annotations

from typing import Iterator


def read_lines(path: str) -> Iterator[str]:
    """Lines of a UTF-8 text file without their line ends, read lazily.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` (universal newlines) and at
    nothing else: a form feed, ``\\x85`` or ``\\u2028`` inside a line is
    kept, so line numbers agree across every file a command reads.
    """
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n")
