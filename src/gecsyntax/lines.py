"""The one line reader behind every input format."""

from __future__ import annotations

from typing import Iterator

from .errors import FormatError


def read_lines(path: str) -> Iterator[str]:
    """Lines of a UTF-8 text file without their line ends, read lazily.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` (universal newlines) and at
    nothing else: a form feed, ``\\x85`` or ``\\u2028`` inside a line is
    kept, so line numbers agree across every file a command reads.  A file
    that is not UTF-8 raises :class:`FormatError` at its first bad line.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for line in fh:
                yield line.rstrip("\n")
            return
        except UnicodeDecodeError:
            pass
    # Latin-1 maps each byte to one character, so this re-read splits the
    # raw bytes into the same lines as the UTF-8 reader above.
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("not valid UTF-8", lineno, path) from None
    raise FormatError("not valid UTF-8", path=path)
