"""Word-level edit extraction between source and corrected sentences.

Three structural categories describe how an ungrammatical source differs
from its correction:

* ``SUB`` — one source word must be substituted by one target word,
* ``RED`` — one source word is redundant and must be deleted,
* ``MISS`` — one or more target words are missing before a source
  position (all words missing at the same point form a single edit).

:func:`align` extracts a minimal-cost script deterministically;
:func:`apply_edits` reconstructs the target from a source and edits in
any order, and rejects every script that :func:`make_script` rejects;
it doubles as the round-trip oracle for the aligner.  The tie-break
contract is pinned by ``tests/helpers.align_table_oracle``, a full-table
aligner that shares no code with this module.

An :class:`Edit` is a named tuple of ``(category, i, j, src_tokens,
tgt_tokens)``: it hashes and compares field-wise, equals the plain 5-tuple
of its fields, and none of its fields can be assigned.  An edit script
(:data:`EditScript`) is a plain tuple of edits in slot order
(:attr:`Edit.slot`); :func:`make_script` alone orders and checks one, and
:func:`align` builds its script in that order.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError
from .lines import read_lines

SUB = "SUB"
RED = "RED"
MISS = "MISS"
CATEGORIES = (SUB, RED, MISS)


class Edit(NamedTuple):
    """One edit over the source token sequence.

    ``(i, j)`` is a half-open source span: ``j == i + 1`` for SUB and RED,
    ``j == i`` (a pure insertion point) for MISS.

    A named tuple: it hashes and compares as the tuple of its five fields,
    so ``Edit(SUB, 0, 1, ("a",), ("b",)) == ("SUB", 0, 1, ("a",), ("b",))``,
    and assigning a field raises :class:`AttributeError`.
    """

    category: str
    i: int
    j: int
    src_tokens: tuple[str, ...]
    tgt_tokens: tuple[str, ...]

    @property
    def slot(self) -> int:
        """Where the edit sits: the gap before source word ``i`` is slot
        ``2i`` and word ``i`` is slot ``2i + 1``.  A MISS takes its gap, a
        SUB or RED its word; no two edits of a script share a slot."""
        return 2 * self.i + (self.category != MISS)

    def identity(self) -> tuple:
        """Equality key used for pooling edits across systems."""
        return (self.category, self.i, self.j, self.tgt_tokens)


EditScript = tuple[Edit, ...]


def make_script(edits: Iterable[Edit]) -> EditScript:
    """The script of ``edits`` given in any order: a tuple sorted by
    :attr:`Edit.slot`, or ``ValueError`` unless it passes :func:`check_script`."""
    script = tuple(sorted(edits, key=Edit.slot.fget))
    problems = check_script(script)
    if problems:
        raise ValueError("invalid edit script: " + "; ".join(problems))
    return script


def check_script(edits: Sequence[Edit]) -> list[str]:
    """Why ``edits`` are not a valid script, empty if they are: an edit
    without its category's shape, or one in an :attr:`Edit.slot` already
    taken (``two MISS edits at point i``, ``overlapping span at i``)."""
    problems = []
    taken = set()
    for e in edits:
        if e.category == SUB and not (e.j == e.i + 1 and len(e.tgt_tokens) == 1):
            problems.append(f"bad SUB shape at {e.i}")
        elif e.category == RED and not (e.j == e.i + 1 and not e.tgt_tokens):
            problems.append(f"bad RED shape at {e.i}")
        elif e.category == MISS and not (e.j == e.i and e.tgt_tokens):
            problems.append(f"bad MISS shape at {e.i}")
        elif e.category not in CATEGORIES:
            problems.append(f"unknown category {e.category!r}")
        slot = e.slot
        if slot in taken:
            problems.append(f"two MISS edits at point {e.i}" if e.category == MISS
                            else f"overlapping span at {e.i}")
        taken.add(slot)
    return problems


def align(src_tokens: Sequence[str], tgt_tokens: Sequence[str]) -> EditScript:
    """Extract a minimal-cost, deterministic edit script from src to tgt.

    Costs are unit costs (match 0, substitute/insert/delete 1).  Ties are
    broken by op preference match > substitute > delete > insert, resolved
    left to right, so e.g. in ``["the","the","cat"] -> ["the","cat"]`` the
    second ``"the"`` is the redundant one.  Maximal runs of non-matching
    positions are decomposed per word: the first min(m, n) source/target
    pairs become SUBs, leftover source words become REDs, leftover target
    words form one trailing MISS.

    Suffix costs come from bit-parallel columns (Myers 1999, in Hyyro's
    2004 global form): each source token adds one column of vertical cost
    deltas, one bit per target token.  Time is O(n * ceil(m / 64)) word
    operations and memory is two ints per source token.

    ``apply_edits(src_tokens, align(src_tokens, tgt_tokens))`` always
    reconstructs ``tgt_tokens``.
    """
    # Matching equal leading tokens is always on a minimal-cost path and is
    # exactly what the left-to-right preference would pick, so trim them.
    # The inputs may be a list and a tuple, which never compare equal, so
    # identity is the scan reaching both ends.
    n, m = len(src_tokens), len(tgt_tokens)
    offset = 0
    while offset < n and offset < m and src_tokens[offset] == tgt_tokens[offset]:
        offset += 1
    if offset == n and offset == m:
        return ()
    s, t = src_tokens, tgt_tokens
    if offset:
        s = s[offset:]
        t = t[offset:]
        n -= offset
        m -= offset

    # Over the reversed sequences, column a holds the costs of aligning the
    # last a source tokens with the last b target tokens, b = 0..m.  Bit
    # b - 1 of vp[a] (vn[a]) is set when row b costs one more (less) than
    # row b - 1, so cost(i, j) of s[i:] against t[j:] is
    # a + popcount(vp[a] & low) - popcount(vn[a] & low), a = n - i, with
    # low masking the m - j rows below.
    full = (1 << m) - 1
    match: dict[str, int] = {}
    for j, tok in enumerate(t):
        match[tok] = match.get(tok, 0) | 1 << (m - 1 - j)
    pv, nv = full, 0
    vp = [pv]
    vn = [nv]
    # One column per source token: d0 marks the rows reached by a zero-cost
    # diagonal step, hp the horizontal +1 deltas and d0 & pv the -1 deltas;
    # row 0 always grows by one (a global alignment), hence the low bit
    # shifted into hp.
    for tok in reversed(s):
        eq = match.get(tok, 0)
        d0 = (((eq & pv) + pv) ^ pv) | eq | nv
        hp = (nv | ~(d0 | pv)) << 1 | 1
        pv = ((d0 & pv) << 1 | ~(d0 | hp)) & full
        nv = d0 & hp & full
        vp.append(pv)
        vn.append(nv)

    # Walk forward, taking the most-preferred op that stays on a minimal
    # path.  A match is always on one under unit costs, and every other op
    # costs one, so costs are looked up only on a mismatch: cost(i + 1, j + 1)
    # for the diagonal, then cost(i + 1, j) for the delete, else insert.
    # Past either end only inserts or only deletes remain.  Each maximal
    # run of non-matches s[i0:i] / t[j0:j] is emitted as per-word edits.
    edits: list[Edit] = []
    cur = n + vp[n].bit_count() - vn[n].bit_count()
    i = j = 0
    while i < n or j < m:
        i0, j0 = i, j
        while i < n and j < m and s[i] != t[j]:
            cur -= 1
            a = n - i - 1
            up, down = vp[a], vn[a]
            low = (1 << (m - j - 1)) - 1
            if a + (up & low).bit_count() - (down & low).bit_count() == cur:
                i += 1
                j += 1
                continue
            low = low << 1 | 1
            if a + (up & low).bit_count() - (down & low).bit_count() == cur:
                i += 1
            else:
                j += 1
        if i == n or j == m:
            i, j = n, m
        ms, mt = i - i0, j - j0
        k = min(ms, mt)
        at = offset + i0
        for p in range(k):
            edits.append(Edit(SUB, at + p, at + p + 1, (s[i0 + p],), (t[j0 + p],)))
        for p in range(k, ms):
            edits.append(Edit(RED, at + p, at + p + 1, (s[i0 + p],), ()))
        if mt > ms:
            edits.append(Edit(MISS, at + ms, at + ms, (), tuple(t[j0 + ms:j])))
        while i < n and j < m and s[i] == t[j]:
            i += 1
            j += 1
    return tuple(edits)


def apply_edits(src_tokens: Sequence[str], edits: Iterable[Edit]) -> list[str]:
    """Reconstruct the target sentence from a source and its edits.

    The edits may come in any order.  Raises ``ValueError`` on any script
    that :func:`make_script` rejects and on a span outside the source; a
    pure function otherwise.
    """
    n = len(src_tokens)
    out: list[str] = []
    at = 0
    for e in make_script(edits):
        if e.i < 0 or e.j > n:
            raise ValueError(f"edit span [{e.i},{e.j}) out of range for {n} tokens")
        out.extend(src_tokens[at:e.i])
        out.extend(e.tgt_tokens)
        at = e.j
    out.extend(src_tokens[at:])
    return out


# --- serialization -----------------------------------------------------

def script_to_json(script: EditScript) -> str:
    return json.dumps({"edits": [
        {"cat": e.category, "i": e.i, "j": e.j,
         "src": list(e.src_tokens), "tgt": list(e.tgt_tokens)}
        for e in script
    ]}, ensure_ascii=False)


def write_m2(blocks: Iterable[tuple[Sequence[str], EditScript]], fh) -> None:
    """Write ``S``/``A`` blocks: one source line plus one line per edit."""
    first = True
    for src_tokens, script in blocks:
        if not first:
            fh.write("\n")
        first = False
        fh.write("S " + " ".join(src_tokens) + "\n")
        for e in script:
            fh.write(f"A {e.i} {e.j}|||{e.category}|||{' '.join(e.tgt_tokens)}\n")


def m2_blocks(lines: Iterable[str],
              path: str | None = None) -> Iterator[tuple[int, list[str]]]:
    """Group ``S``/``A`` lines into blocks, unparsed, lazily.

    Yields ``(line number of the S line, [S line, A lines...])``.  A block
    ends at a blank line or at the next ``S`` line.  A non-blank line
    outside any block raises :class:`FormatError` at that line.
    """
    block: tuple[int, list[str]] | None = None
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if line.startswith("S ") or line == "S":
            if block is not None:
                yield block
            block = (lineno, [line])
        elif not line.strip():
            if block is not None:
                yield block
            block = None
        elif block is not None:
            block[1].append(line)
        elif line.startswith("A "):
            raise FormatError("'A' line before its 'S' line", lineno, path)
        else:
            raise FormatError(f"unrecognized line {line!r}", lineno, path)
    if block is not None:
        yield block


def parse_m2_block(lineno: int, lines: Sequence[str],
                   path: str | None = None) -> tuple[list[str], EditScript]:
    """The source tokens and edit script of one block from :func:`m2_blocks`.

    ``lineno`` is the line number of the block's ``S`` line.  Edits that do
    not form a valid script (bad shape, overlap) raise
    :class:`FormatError` at that line.
    """
    src = lines[0][2:].split()
    edits: list[Edit] = []
    for a_lineno, line in enumerate(lines[1:], start=lineno + 1):
        if not line.startswith("A "):
            raise FormatError(f"unrecognized line {line!r}", a_lineno, path)
        parts = line[2:].split("|||")
        if len(parts) != 3:
            raise FormatError("expected 'A i j|||CAT|||replacement'", a_lineno, path)
        span, cat, replacement = parts
        try:
            i_s, j_s = span.split()
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise FormatError(f"bad span {span!r}", a_lineno, path) from None
        if cat not in CATEGORIES:
            raise FormatError(f"unknown category {cat!r}", a_lineno, path)
        if not (0 <= i <= j <= len(src)):
            raise FormatError(f"span [{i},{j}) out of range", a_lineno, path)
        edits.append(Edit(cat, i, j, tuple(src[i:j]), tuple(replacement.split())))
    try:
        return src, make_script(edits)
    except ValueError as exc:
        raise FormatError(str(exc), lineno, path) from None


def load_m2_file(path: str) -> Iterator[tuple[int, list[str], EditScript]]:
    """Parse the ``S``/``A`` blocks of an ``.m2`` file lazily; blocks are
    separated by blank lines.

    Yields ``(line number of the S line, source tokens, script)``.  Errors
    are those of :func:`read_lines`, :func:`m2_blocks` and
    :func:`parse_m2_block`.
    """
    for lineno, block in m2_blocks(read_lines(path), path):
        yield lineno, *parse_m2_block(lineno, block, path)
