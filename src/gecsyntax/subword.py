"""Convert word-level trees to subword-level trees.

:func:`to_subword_tree` turns each terminal word into its subword pieces,
sibling terminals under the word's immediate parent, so every subword
inherits the original word's head non-terminal (including pseudo nodes);
the input tree is left as it was.  It rewrites the word tokens of
:func:`tree.bracket_tokens` into bracket text.
The module never runs a tokenizer itself: segmentations are supplied by
the caller, with a configurable continuation-marker convention used only
to verify that the pieces reassemble the word.
"""

from __future__ import annotations

from typing import Sequence

from . import tree as T
from .errors import FormatError

SubwordSegmentation = Sequence[Sequence[str]]  # one piece list per word


def join_pieces(pieces: Sequence[str], marker: str = "@@", style: str = "prefix") -> str:
    """Reassemble a word from its pieces by stripping continuation markers.

    ``style="prefix"`` strips a leading marker from every non-first piece
    (``["play", "@@ing"] -> "playing"``); ``style="suffix"`` strips a
    trailing marker from every non-final piece (``["play@@", "ing"]``).
    """
    if style == "prefix":
        out = [pieces[0]]
        out += [p[len(marker):] if p.startswith(marker) else p for p in pieces[1:]]
    elif style == "suffix":
        out = [p[:len(p) - len(marker)] if p.endswith(marker) else p
               for p in pieces[:-1]]
        out.append(pieces[-1])
    else:
        raise ValueError(f"unknown marker style {style!r}")
    return "".join(out)


def to_subword_tree(
    tree: list[str],
    segmentation: SubwordSegmentation,
    marker: str = "@@",
    style: str = "prefix",
) -> str:
    """Replace each terminal with its subword pieces as sibling terminals.

    The segmentation must cover the tree's yield exactly: one piece list
    per word, each non-empty and reassembling (by the marker convention)
    to its word, checked in that order.  Pieces are raw text: they are
    checked against the unescaped word and written escaped.  Non-terminal
    structure is unchanged.  One pass finds the words and gives the text.
    """
    at = [i for i, tok in enumerate(tree) if tok[0] not in "()"]
    if len(segmentation) != len(at):
        raise ValueError(
            f"segmentation covers {len(segmentation)} words, tree has {len(at)}"
        )
    out = list(tree)
    for i, pieces in zip(at, segmentation):
        word = T.unescape_token(tree[i])
        if not pieces:
            raise ValueError(f"empty subword list for word {word!r}")
        rebuilt = join_pieces(pieces, marker, style)
        if rebuilt != word:
            raise ValueError(
                f"subword pieces {list(pieces)!r} reassemble to {rebuilt!r}, "
                f"expected {word!r}"
            )
        out[i] = T.escape_token(" ".join(pieces))
    return T.serialize(out)


def parse_segmentation_line(line: str, lineno: int | None = None,
                            path: str | None = None) -> list[list[str]]:
    """One sentence per line: words separated by TAB, pieces by spaces."""
    if not line.strip():
        raise FormatError("blank line in segmentation file", lineno, path)
    groups = []
    for field in line.split("\t"):
        pieces = field.split()
        if not pieces:
            raise FormatError("empty word field in segmentation", lineno, path)
        groups.append(pieces)
    return groups
