"""The one line reader behind every input format."""

from __future__ import annotations

from typing import Iterator

from .errors import FormatError


def read_lines(path: str) -> Iterator[str]:
    """Lines of a UTF-8 text file without their line ends, read lazily.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` (universal newlines) and at
    nothing else: a form feed, ``\\x85`` or ``\\u2028`` inside a line is
    kept, so line numbers agree across every file a command reads.  Each
    line is decoded on its own, so a line that is not UTF-8 raises
    :class:`FormatError` at that line, after every line before it.  One
    byte-order mark opening the file is dropped, as ``utf-8-sig`` does.
    """
    # Latin-1 maps each byte to one character, and no UTF-8 multi-byte
    # sequence holds a \r or \n byte, so this splits the raw bytes into the
    # lines a UTF-8 reader would.  An ASCII line is already its own decoding.
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line = line.encode("latin-1").decode(
                        "utf-8-sig" if lineno == 1 else "utf-8")
                except UnicodeDecodeError:
                    raise FormatError("not valid UTF-8", lineno, path) from None
            yield line.rstrip("\n")
