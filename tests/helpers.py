"""Shared test utilities: independent oracles and random fixtures.

The oracles here deliberately re-derive expected values by a different
route than the library (plain prefix-DP distances, dense matrix math,
scalar loops, finite differences) so tests never compare the code with
itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import re
from pathlib import Path

import numpy as np

import gecsyntax
from gecsyntax import tree as T
from gecsyntax.edits import (
    Edit, EditScript, MISS, RED, SUB, align, apply_edits, make_script, m2_blocks,
    parse_m2_block,
)

# --- edit builders and m2 reading ---------------------------------------

def sub(i: int, src_token: str, tgt_token: str) -> Edit:
    return Edit(SUB, i, i + 1, (src_token,), (tgt_token,))


def red(i: int, src_token: str) -> Edit:
    return Edit(RED, i, i + 1, (src_token,), ())


def miss(i: int, tgt_tokens) -> Edit:
    return Edit(MISS, i, i, (), tuple(tgt_tokens))


def read_m2(lines, path=None):
    """``(line number of the S line, source tokens, script)`` for each
    ``S``/``A`` block of ``lines``, lazily, as ``edits.load_m2_file``
    gives them for a file."""
    for lineno, block in m2_blocks(lines, path):
        yield lineno, *parse_m2_block(lineno, block, path)

# --- Levenshtein oracles ------------------------------------------------

def levenshtein_scalar(a, b) -> int:
    """Textbook prefix-DP minimum edit distance (unit costs)."""
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            cur[j] = min(prev[j] + 1,
                         cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[m]


def align_table_oracle(src, tgt) -> list[tuple]:
    """The aligner's tie-break contract, computed from a full cost table.

    Fills the (n+1) x (m+1) table of suffix costs after trimming the common
    prefix, then walks forward taking the first op of match > substitute >
    delete > insert that stays on a minimal path.  Each maximal run of
    non-matches becomes SUBs for its first min(run) source/target pairs,
    REDs for leftover source words and one trailing MISS for leftover
    target words.  Returns ``(category, i, j, src_tokens, tgt_tokens)``
    tuples and uses nothing from the library.
    """
    s, t = list(src), list(tgt)
    offset = 0
    while offset < len(s) and offset < len(t) and s[offset] == t[offset]:
        offset += 1
    s, t = s[offset:], t[offset:]
    n, m = len(s), len(t)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n, -1, -1):
        for j in range(m, -1, -1):
            if i == n or j == m:
                dist[i][j] = (n - i) + (m - j)
            else:
                dist[i][j] = min(dist[i + 1][j + 1] + (s[i] != t[j]),
                                 dist[i + 1][j] + 1, dist[i][j + 1] + 1)

    edits: list[tuple] = []
    run_src: list[str] = []
    run_tgt: list[str] = []
    run_start = offset

    def flush():
        k = min(len(run_src), len(run_tgt))
        for p in range(len(run_src)):
            pos = run_start + p
            if p < k:
                edits.append(("SUB", pos, pos + 1, (run_src[p],), (run_tgt[p],)))
            else:
                edits.append(("RED", pos, pos + 1, (run_src[p],), ()))
        if len(run_tgt) > len(run_src):
            point = run_start + len(run_src)
            edits.append(("MISS", point, point, (), tuple(run_tgt[len(run_src):])))
        run_src.clear()
        run_tgt.clear()

    i = j = 0
    while i < n or j < m:
        cur = dist[i][j]
        both = i < n and j < m
        if both and s[i] == t[j] and dist[i + 1][j + 1] == cur:
            flush()
            i += 1
            j += 1
            run_start = offset + i
            continue
        if not run_src and not run_tgt:
            run_start = offset + i
        if both and dist[i + 1][j + 1] + 1 == cur:
            run_src.append(s[i])
            run_tgt.append(t[j])
            i += 1
            j += 1
        elif i < n and dist[i + 1][j] + 1 == cur:
            run_src.append(s[i])
            i += 1
        else:
            run_tgt.append(t[j])
            j += 1
    flush()
    return edits


@functools.lru_cache(maxsize=None)
def all_sequences(alphabet=("a", "b", "c"), max_len=6) -> tuple[tuple[str, ...], ...]:
    seqs = []
    for length in range(max_len + 1):
        seqs.extend(itertools.product(alphabet, repeat=length))
    return tuple(seqs)


def all_pairs_levenshtein(seqs) -> np.ndarray:
    """Distance matrix for every sequence pair, via one vectorized DP."""
    n_seq = len(seqs)
    max_len = max((len(s) for s in seqs), default=0)
    symbols = {tok: i for i, tok in enumerate(sorted({t for s in seqs for t in s}))}
    arr = np.full((n_seq, max_len), -1, dtype=np.int16)
    for i, s in enumerate(seqs):
        arr[i, :len(s)] = [symbols[t] for t in s]
    lens = np.array([len(s) for s in seqs])

    dp = np.zeros((n_seq, n_seq, max_len + 1, max_len + 1), dtype=np.uint8)
    ramp = np.arange(max_len + 1, dtype=np.uint8)
    dp[:, :, :, 0] = ramp[None, None, :]
    dp[:, :, 0, :] = ramp[None, None, :]
    for i in range(1, max_len + 1):
        ai = arr[:, None, i - 1]
        for j in range(1, max_len + 1):
            neq = (ai != arr[None, :, j - 1]).astype(np.uint8)
            dp[:, :, i, j] = np.minimum(
                np.minimum(dp[:, :, i - 1, j], dp[:, :, i, j - 1]) + 1,
                dp[:, :, i - 1, j - 1] + neq,
            )
    rows = np.arange(n_seq)
    return dp[rows[:, None], rows[None, :], lens[:, None], lens[None, :]]


def script_cost(script) -> int:
    """Unit cost of a script from its edits' fields: one per SUB or RED,
    one per word a MISS inserts."""
    return sum(len(e.tgt_tokens) if e.category == MISS else 1 for e in script)


def category_counts(script) -> dict[str, int]:
    """How many edits of each category a script holds, zero-filled."""
    counts = {SUB: 0, RED: 0, MISS: 0}
    for e in script:
        counts[e.category] += 1
    return counts


def our_cost_row(src) -> bytes:
    """align() script costs of one source against every enumerated target."""
    return bytes(script_cost(align(list(src), list(t))) for t in all_sequences())


def enumerate_scripts(src, tgt, max_cost) -> list[EditScript]:
    """Every valid edit script of cost <= max_cost mapping src to tgt.

    Brute force over all per-position SUB/RED choices and all MISS
    insertions built from target tokens; used to confirm unique minima on
    tiny examples.
    """
    tgt_vocab = sorted(set(tgt))
    n = len(src)
    position_choices = []
    for i in range(n):
        options = [None, red(i, src[i])]
        options += [sub(i, src[i], w) for w in tgt_vocab if w != src[i]]
        position_choices.append(options)

    def miss_options(point, budget):
        yield None
        for length in range(1, budget + 1):
            for combo in itertools.product(tgt_vocab, repeat=length):
                yield miss(point, combo)

    results = []

    def expand(point, edits, cost):
        if point > n:
            if cost <= max_cost and apply_edits(src, make_script(edits)) == list(tgt):
                results.append(make_script(edits))
            return
        for m in miss_options(point, max_cost - cost):
            extra = 0 if m is None else script_cost([m])
            if cost + extra > max_cost:
                continue
            step = edits + ([m] if m is not None else [])
            if point == n:
                expand(point + 1, step, cost + extra)
                continue
            for choice in position_choices[point]:
                c2 = cost + extra + (0 if choice is None else script_cost([choice]))
                if c2 > max_cost:
                    continue
                expand(point + 1, step + ([choice] if choice is not None else []),
                       c2)

    expand(0, [], 0)
    return results


# --- random fixtures ----------------------------------------------------

PHRASE_LABELS = ("S", "NP", "VP", "PP", "ADJP", "ADVP", "SBAR")
POS_LABELS = ("DT", "NN", "VB", "JJ", "RB", "IN", "PRP")


def random_tokens(rng: random.Random, n: int, vocab) -> list[str]:
    return [rng.choice(vocab) for _ in range(n)]


def random_tree(tokens, rng: random.Random, unary_prob=0.15) -> T.NonTerminal:
    """A random phrase-structure tree with preterminals over the tokens."""

    def build(lo, hi):
        if hi - lo == 1:
            node = T.NonTerminal(rng.choice(POS_LABELS), [T.Terminal(tokens[lo])])
            while rng.random() < unary_prob:
                node = T.NonTerminal(rng.choice(PHRASE_LABELS), [node])
            return node
        parts = rng.randint(2, min(4, hi - lo))
        cuts = sorted(rng.sample(range(lo + 1, hi), parts - 1))
        bounds = [lo, *cuts, hi]
        children = [build(bounds[i], bounds[i + 1]) for i in range(parts)]
        node = T.NonTerminal(rng.choice(PHRASE_LABELS), children)
        if rng.random() < unary_prob:
            node = T.NonTerminal(rng.choice(PHRASE_LABELS), [node])
        return node

    return build(0, len(tokens))


def random_script(src, rng: random.Random, vocab,
                  sub_prob=0.15, red_prob=0.15, miss_prob=0.12,
                  force_empty_prob=0.0) -> EditScript:
    """A random valid edit script over the source tokens."""
    if rng.random() < force_empty_prob:
        return EditScript()
    n = len(src)
    edits: list[Edit] = []
    ops = []
    for i in range(n):
        r = rng.random()
        if r < sub_prob:
            ops.append(SUB)
        elif r < sub_prob + red_prob:
            ops.append(RED)
        else:
            ops.append(None)
    if all(op == RED for op in ops):
        ops[rng.randrange(n)] = None
    for i, op in enumerate(ops):
        if op == SUB:
            w = rng.choice(vocab)
            while w == src[i]:
                w = rng.choice(vocab)
            edits.append(sub(i, src[i], w))
        elif op == RED:
            edits.append(red(i, src[i]))
    for point in range(n + 1):
        if rng.random() < miss_prob:
            k = rng.randint(1, 2)
            edits.append(miss(point, [rng.choice(vocab) for _ in range(k)]))
    return make_script(edits)


def apply_edits_oracle(src, edits) -> list[str]:
    """The target of a valid script, its edits in any order, by a walk over
    every source point and word: the MISS words at the point, then the word
    itself, its SUB replacement, or nothing for a RED."""
    at_point = {e.i: e.tgt_tokens for e in edits if e.category == "MISS"}
    at_span = {e.i: e for e in edits if e.category != "MISS"}
    out: list[str] = []
    for i in range(len(src) + 1):
        out.extend(at_point.get(i, ()))
        if i < len(src):
            e = at_span.get(i)
            if e is None:
                out.append(src[i])
            elif e.category == "SUB":
                out.extend(e.tgt_tokens)
    return out


def script_oracle(edits):
    """The edit-script rule, pair by pair: ``None`` unless every edit has
    its category's shape (SUB: one source word and one replacement word,
    RED: one source word and none, MISS: an empty span and one or more
    words), no two MISS edits share a point and no two SUB/RED spans
    overlap; otherwise the edits ordered by span start, a MISS first.
    ``edits`` are ``(category, i, j, src_tokens, tgt_tokens)`` tuples;
    uses nothing from the library."""
    shapes = {"SUB": lambda i, j, tgt: j == i + 1 and len(tgt) == 1,
              "RED": lambda i, j, tgt: j == i + 1 and len(tgt) == 0,
              "MISS": lambda i, j, tgt: j == i and len(tgt) > 0}
    for category, i, j, _, tgt in edits:
        if category not in shapes or not shapes[category](i, j, tgt):
            return None
    for a, b in itertools.combinations(edits, 2):
        if a[0] == b[0] == "MISS":
            if a[1] == b[1]:
                return None
        elif "MISS" not in (a[0], b[0]) and a[1] < b[2] and b[1] < a[2]:
            return None
    return sorted(edits, key=lambda e: (e[1], e[0] != "MISS"))


def random_pair(rng: random.Random, vocab, max_len=12):
    src = random_tokens(rng, rng.randint(1, max_len), vocab)
    script = random_script(src, rng, vocab)
    return src, apply_edits(src, script)


# --- subword oracle -----------------------------------------------------

def subword_tree_oracle(root, segmentation, marker="@@", style="prefix"):
    """The subword tree, or the ``ValueError`` text, in two passes: read
    the words off the tree and check them (count, then each word in order,
    empty before mis-joined), then rebuild the tree with each word's
    pieces in its place.  Joins pieces with its own rule and uses nothing
    from ``gecsyntax.subword``."""
    def words_of(node):
        if isinstance(node, T.Terminal):
            return [node.token]
        return [w for child in node.children for w in words_of(child)]

    def join(pieces):
        if style == "prefix":
            return pieces[0] + "".join(p.removeprefix(marker) for p in pieces[1:])
        return "".join(p.removesuffix(marker) for p in pieces[:-1]) + pieces[-1]

    words = words_of(root)
    if len(words) != len(segmentation):
        return (f"segmentation covers {len(segmentation)} words, "
                f"tree has {len(words)}")
    for word, pieces in zip(words, segmentation):
        if len(pieces) == 0:
            return f"empty subword list for word {word!r}"
        if join(pieces) != word:
            return (f"subword pieces {list(pieces)!r} reassemble to "
                    f"{join(pieces)!r}, expected {word!r}")
    groups = iter(segmentation)

    def rebuild(node):
        if isinstance(node, T.Terminal):
            return [T.Terminal(p) for p in next(groups)]
        return [T.NonTerminal(node.label,
                              [n for child in node.children for n in rebuild(child)])]

    return rebuild(root)[0]


# --- bracket oracle -----------------------------------------------------

def bracket_error_oracle(text):
    """The message a malformed bracketed tree is rejected with, or ``None``:
    the text split into ``(``, ``)`` and words, then read left to right
    with a count of open constituents, reporting the first token that
    breaks the rule.  Uses nothing from ``gecsyntax.tree``."""
    tokens = re.findall(r"\(|\)|[^\s()]+", text)
    if not tokens:
        return "empty input, expected a bracketed tree"
    if tokens[0] != "(":
        return f"expected '(', got {tokens[0]!r}"
    depth, i = 0, 0
    children = []  # per open constituent: its label and child count
    while i < len(tokens):
        if i and not depth:
            return "trailing material after the tree"
        tok = tokens[i]
        if tok == "(":
            if i + 1 == len(tokens):
                return "unbalanced parentheses"
            label = tokens[i + 1]
            if label == ")":
                return "empty constituent '()'"
            if label == "(":
                return "missing constituent label"
            if children:
                children[-1][1] += 1
            children.append([label, 0])
            depth += 1
            i += 2
            continue
        if tok == ")":
            label, count = children.pop()
            if not count:
                return f"non-terminal {label!r} has no children"
            depth -= 1
        else:
            children[-1][1] += 1
        i += 1
    return "unbalanced parentheses" if depth else None


# --- strip oracle -------------------------------------------------------

def strip_pseudo_oracle(root):
    """The tree without pseudo nodes, or the ``ValueError`` text, by
    recursion: a RED subtree is dropped, a SUB or MISS node gives way to its
    children, and a constituent left with no children is dropped; what is
    left must be one constituent.  Uses nothing from ``gecsyntax.projection``."""
    def strip(node):
        if isinstance(node, T.Terminal):
            return [T.Terminal(node.token)]
        if node.label == "RED":
            return []
        kids = [n for child in node.children for n in strip(child)]
        if node.label in ("SUB", "MISS"):
            return kids
        return [T.NonTerminal(node.label, kids)] if kids else []

    kept = strip(root)
    if len(kept) != 1 or not isinstance(kept[0], T.NonTerminal):
        return "stripping pseudo nodes did not leave a single rooted tree"
    return kept[0]


# --- projection oracle --------------------------------------------------

def project_oracle(target, script, src, placement="below"):
    """``(bracket text, inserted)`` of the projection of ``target`` onto
    ``src``; raises what the projection raises, with the same text.

    The edits run on a fresh copy of the target's nodes, each copy holding
    its parent in ``up``.  One walk over the ordered script checks it and
    finds each source word's node; a second, right to left, deletes the
    missing words (pruning emptied ancestors), wraps SUB and MISS words and
    places RED words next to their neighbour's branch.  Writes the text by
    recursion and uses nothing from ``gecsyntax.projection``."""
    pseudo = ("SUB", "RED", "MISS")
    if placement not in ("below", "above"):
        raise ValueError("placement must be one of ('below', 'above')")
    src = list(src)
    n = len(src)
    if not src and len(script):
        raise ValueError("empty source sentence with a non-empty edit script")
    top = T.NonTerminal("", [])
    words = []

    def copy(node, up):
        if isinstance(node, T.Terminal):
            made = T.Terminal(node.token)
            words.append(made)
        elif node.label in pseudo:
            raise ValueError(f"target tree already contains {node.label!r} nodes")
        else:
            made = T.NonTerminal(node.label, [])
        made.up = up
        up.children.append(made)
        for child in getattr(node, "children", ()):
            copy(child, made)

    def place(node):  # the index of ``node`` among its parent's children
        return next(k for k, kid in enumerate(node.up.children) if kid is node)

    def wrap(node, label):
        up = node.up
        if placement == "above" and len(up.children) == 1 and up.label not in pseudo:
            node, up = up, up.up
        while up.label in pseudo:
            node, up = up, up.up
        wrapper = T.NonTerminal(label, [node])
        wrapper.up = up
        up.children[place(node)] = wrapper
        node.up = wrapper

    copy(target, top)
    edits = make_script(script)
    expected, src_word, miss_words = [], [], {}
    rightmost, sp = -1, 0
    for e in edits:
        if e.i < 0 or e.j > n:
            raise ValueError(f"edit span [{e.i},{e.j}) out of range for {n} tokens")
        tp = len(expected)
        expected += src[sp:e.i] + list(e.tgt_tokens)
        kept = (e.j if e.category == "SUB" else e.i) - sp
        src_word += words[tp:tp + kept]
        if kept:
            rightmost = sp + kept - 1
        if e.category == "RED":
            src_word.append(None)
        elif e.category == "MISS":
            miss_words[e.i] = words[tp + kept:len(expected)]
        sp = e.j
    src_word += words[len(expected):]
    expected += src[sp:]
    if sp < n:
        rightmost = n - 1
    got = [w.token for w in words]
    if got != expected:
        raise ValueError("target tree yield does not match apply(src, script): "
                         f"{got!r} vs {expected!r}")

    inserted = []
    src_word.append(src_word[rightmost] if rightmost >= 0 else None)
    for e in reversed(edits):
        if e.category == "MISS":
            for node in miss_words[e.i]:
                up = node.up
                up.children.pop(place(node))
                while not up.children:
                    node, up = up, up.up
                    if up is top:
                        raise ValueError("deleting missing words emptied the whole tree")
                    up.children.pop(place(node))
        anchor = src_word[e.i + (e.category == "RED")]
        if anchor is None:
            raise ValueError("no source word available to anchor the edit")
        if e.category == "SUB":
            anchor.token = src[e.i]
            wrap(anchor, "SUB")
            inserted.append(("SUB", e.i))
        elif e.category == "RED":
            node, up = anchor, anchor.up
            while up.up is not top and len(up.children) == 1:
                node, up = up, up.up
            new = T.Terminal(src[e.i])
            red = T.NonTerminal("RED", [new])
            new.up, red.up = red, up
            up.children.insert(place(node) + (e.i == n - 1), red)
            src_word[e.i] = new
            inserted.append(("RED", e.i))
        else:
            wrap(anchor, "MISS")
            inserted.append(("MISS", e.i if e.i < n else rightmost))

    def text(node):
        if isinstance(node, T.Terminal):
            return node.token.replace("(", "-LRB-").replace(")", "-RRB-")
        return f"({node.label} {' '.join(map(text, node.children))})"

    def yield_of(node):
        if isinstance(node, T.Terminal):
            return [node.token]
        return [w for child in node.children for w in yield_of(child)]

    if yield_of(top) != src:
        raise RuntimeError("projection produced a tree with the wrong yield")
    return text(top.children[0]), sorted(inserted, key=lambda item: (item[1], item[0]))


# --- graph oracles ------------------------------------------------------

def neighbour_lists(parent) -> list[list[int]]:
    """Symmetric neighbour lists of the forest whose node ``v`` hangs off
    ``parent[v]`` (-1 at a root), in order of the child ids."""
    lists: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            lists[v].append(p)
            lists[p].append(v)
    return lists


def tree_edges_oracle(text: str) -> tuple[int, list[str], set[tuple[int, int]]]:
    """``(num_terminals, labels, edges)`` of a bracketed tree, read off its text.

    Terminals are nodes ``0 .. num_terminals - 1`` in text order; the
    constituents follow in the order of their ``(`` tokens, which is
    pre-order.  A stack of the open constituents gives each node's
    parent, so ``edges`` holds one ``(child, parent)`` pair per non-root
    node.  Uses no tree objects.
    """
    toks = re.findall(r"\(|\)|[^\s()]+", text)
    is_word = [t not in ("(", ")") and toks[i - 1] != "(" for i, t in enumerate(toks)]
    num_terminals = sum(is_word)
    labels = [toks[i + 1] for i, t in enumerate(toks) if t == "("]
    edges: set[tuple[int, int]] = set()
    open_ids: list[int] = []
    word, constituent = 0, num_terminals
    for tok, word_here in zip(toks, is_word):
        if tok == "(":
            if open_ids:
                edges.add((constituent, open_ids[-1]))
            open_ids.append(constituent)
            constituent += 1
        elif tok == ")":
            open_ids.pop()
        elif word_here:
            edges.add((word, open_ids[-1]))
            word += 1
    return num_terminals, labels, edges


def dep_graph_oracle(heads):
    """The parent vector of the dependency tree ``heads`` encodes, or the
    ``ValueError`` text it earns: roots first, then head range, then a
    cycle, which shows as a token whose heads do not reach head 0 within
    ``len(heads)`` steps.  Uses nothing from the library."""
    n = len(heads)
    roots = [i + 1 for i, h in enumerate(heads) if h == 0]
    if n and not roots:
        return "dependency heads contain no root"
    if len(roots) > 1:
        return f"multiple roots at tokens {roots}"
    for h in heads:
        if h < 0 or h > n:
            return f"head index {h} out of range for {n} tokens"
    for start in range(1, n + 1):
        token = start
        for _ in range(n):
            if token == 0:
                break
            token = heads[token - 1]
        if token != 0:
            return "dependency heads contain a cycle"
    return [h - 1 for h in heads]


def random_heads(rng: random.Random, max_tokens=8) -> list[int]:
    """Head lists of 0..``max_tokens`` tokens: trees, perhaps with one head
    moved (a cycle, a second root, an out-of-range head), or any ints."""
    n = rng.randint(0, max_tokens)
    if rng.random() < 0.3:
        return [rng.randint(-1, n + 1) for _ in range(n)]
    order = rng.sample(range(1, n + 1), n)
    heads = [0] * n
    for k, token in enumerate(order[1:], start=1):
        heads[token - 1] = order[rng.randrange(k)]
    if n and rng.random() < 0.6:
        heads[rng.randrange(n)] = rng.randint(-1, n + 1)
    return heads


def dense_adjacency(n: int, edges) -> np.ndarray:
    """The symmetric 0/1 ``n x n`` matrix of undirected ``(u, v)`` edges."""
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    return A


# --- numeric oracles ----------------------------------------------------

def gcn_dense_preactivation(graph, H, W, b) -> np.ndarray:
    """A @ H @ W^T + b with an explicit dense adjacency matrix.

    ``graph`` has ``num_nodes`` and its edges either as symmetric
    neighbour lists ``adjacency`` or as a ``parent`` vector (-1 at a
    root).  ``A`` is filled here entry by entry, never read from the graph.
    """
    if hasattr(graph, "adjacency"):
        edges = [(v, u) for v, neigh in enumerate(graph.adjacency) for u in neigh]
    else:
        edges = [(v, p) for v, p in enumerate(graph.parent) if p >= 0]
    A = dense_adjacency(graph.num_nodes, edges)
    return A @ np.asarray(H) @ np.asarray(W).T + np.asarray(b)


def gcn_dense_oracle(graph, H, W, b) -> np.ndarray:
    """ReLU(A @ H @ W^T + b), by :func:`gcn_dense_preactivation`."""
    return np.maximum(gcn_dense_preactivation(graph, H, W, b), 0.0)


def gcn_preactivations(graph, inits, stack) -> list[np.ndarray]:
    """Every layer's pre-activation under ``stack``, recomputed densely.

    The node matrix starts as the terminal inits over the ``E_nt`` rows
    that ``stack.labels`` names for the graph's non-terminals.
    """
    H = np.vstack([inits, stack.E_nt[[stack.labels.index(lab) for lab in graph.nt_labels]]])
    pres = []
    for params in stack.layers:
        pres.append(gcn_dense_preactivation(graph, H, params.W, params.b))
        H = np.maximum(pres[-1], 0.0)
    return pres


# A finite-difference test that takes every probe as valid needs inputs
# whose pre-activations all lie at least this far from a ReLU kink.  The
# margin must comfortably exceed the finite-difference step times the
# pre-activation's sensitivity to one parameter entry, or the perturbed
# pass lands on the other side of the kink and the numeric gradient is
# garbage.
KINK_MARGIN = 1e-3


def kink_free_gcn_instance(seed, d=5):
    """Graph, two-layer stack of width ``d`` and inits with every
    pre-activation at least ``KINK_MARGIN`` from a ReLU kink, by
    :func:`gcn_preactivations`.

    The graph is a random tree of 1-4 words from ``random.Random(seed)``.
    Stack and inits are re-rolled together, up to 100 trials: non-terminal
    pre-activations in the first layer are independent of the terminal
    inits.
    """
    from gecsyntax.gcn import init_stack
    from gecsyntax.graph import build_graph

    rng = random.Random(seed)
    tokens = random_tokens(rng, rng.randint(1, 4), SRC_VOCAB)
    g = build_graph(random_tree(tokens, rng))
    labels = sorted(set(g.nt_labels))
    for trial in range(100):
        stack = init_stack(labels, d=d, num_layers=2, seed=seed + 31 * trial)
        inits = np.random.default_rng(seed + 977 * (trial + 1)).uniform(
            -0.5, 0.5, (g.num_terminals, d))
        pres = gcn_preactivations(g, inits, stack)
        if min(np.min(np.abs(p)) for p in pres) >= KINK_MARGIN:
            return g, stack, inits
    raise RuntimeError("no kink-free sample found")


def attention_scalar_oracle(Q, M, Wq, Wk, Wv) -> np.ndarray:
    """Scaled dot-product attention recomputed with explicit scalar loops."""
    m, d = Q.shape
    k = M.shape[0]
    q_proj = [[sum(Q[r][a] * Wq[a][c] for a in range(d)) for c in range(d)]
              for r in range(m)]
    k_proj = [[sum(M[s][a] * Wk[a][c] for a in range(d)) for c in range(d)]
              for s in range(k)]
    v_proj = [[sum(M[s][a] * Wv[a][c] for a in range(d)) for c in range(d)]
              for s in range(k)]
    out = np.zeros((m, d))
    for r in range(m):
        scores = [sum(q_proj[r][c] * k_proj[s][c] for c in range(d)) / math.sqrt(d)
                  for s in range(k)]
        peak = max(scores)
        exps = [math.exp(x - peak) for x in scores]
        total = sum(exps)
        weights = [e / total for e in exps]
        for c in range(d):
            out[r][c] = sum(weights[s] * v_proj[s][c] for s in range(k))
    return out


def numeric_grad(f, arr, h=1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every entry of arr."""
    grad = np.zeros_like(arr, dtype=float)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        old = flat[idx]
        flat[idx] = old + h
        up = f()
        flat[idx] = old - h
        down = f()
        flat[idx] = old
        gflat[idx] = (up - down) / (2 * h)
    return grad


def max_rel_err(analytic, numeric, floor=1e-6) -> float:
    a = np.asarray(analytic, dtype=float).reshape(-1)
    n = np.asarray(numeric, dtype=float).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


# --- ensemble selector oracle -------------------------------------------

def selector_gd_oracle(examples, labels, lr, epochs, l2):
    """Edit-selector training by plain full-batch gradient descent, one row
    per example: no grouping of equal rows.

    ``examples`` are ``(votes, category)`` pairs.  A row is the votes, their
    mean and a one-hot of the category (SUB, RED, MISS); the loss is the
    mean logistic loss plus ``l2 / 2 * |w|^2`` (bias not regularized).
    Returns (weights, bias) after ``epochs`` steps from zero.
    """
    onehot = {"SUB": [1.0, 0.0, 0.0], "RED": [0.0, 1.0, 0.0], "MISS": [0.0, 0.0, 1.0]}
    X = np.array([[*map(float, votes), sum(votes) / len(votes), *onehot[category]]
                  for votes, category in examples])
    y = np.asarray(labels, dtype=float)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        residual = 1.0 / (1.0 + np.exp(-(X @ w + b))) - y
        grad_w = X.T @ residual / len(y) + l2 * w
        grad_b = residual.sum() / len(y)
        w = w - lr * grad_w
        b = b - lr * grad_b
    return w, b


def select_edits_oracle(scored, threshold):
    """The edit selector's greedy conflict resolution, pair by pair.

    ``scored`` holds ``(score, candidate)`` pairs, each candidate with an
    ``edit`` that has ``category`` ("SUB", "RED" or "MISS"), source span
    ``i``, ``j`` and ``tgt_tokens``.  Candidates scoring at or above
    ``threshold`` are taken by descending score (ties: leftmost span, then
    SUB, RED, MISS, then replacement); one is skipped when it conflicts
    with any candidate already taken.  Two MISS edits conflict at the same
    point, two SUB/RED edits when their spans overlap.  Returns the chosen
    candidates in the order they were taken.
    """
    rank = {"SUB": 0, "RED": 1, "MISS": 2}

    def conflict(a, b):
        if a.category == "MISS" and b.category == "MISS":
            return a.i == b.i
        return "MISS" not in (a.category, b.category) and a.i < b.j and b.i < a.j

    kept = sorted(((s, c) for s, c in scored if s >= threshold),
                  key=lambda sc: (-sc[0], sc[1].edit.i, rank[sc[1].edit.category],
                                  sc[1].edit.tgt_tokens))
    chosen = []
    for _, cand in kept:
        if not any(conflict(cand.edit, c.edit) for c in chosen):
            chosen.append(cand)
    return chosen


# --- ensemble corpus ----------------------------------------------------

SRC_VOCAB = [f"w{i}" for i in range(30)]
EDIT_VOCAB = [f"e{i}" for i in range(12)]
NOISE_VOCAB = [f"z{i}" for i in range(12)]


def _spaced_positions(rng: random.Random, n, count, taken, lo=0, hi=None):
    """Up to `count` positions in [lo, hi) at distance >= 2 from `taken`."""
    hi = n if hi is None else hi
    chosen = []
    candidates = list(range(lo, hi))
    rng.shuffle(candidates)
    for p in candidates:
        if len(chosen) >= count:
            break
        if all(abs(p - q) >= 2 for q in taken + chosen):
            chosen.append(p)
    return chosen


def _planted_edits(rng: random.Random, src, positions, vocab):
    edits = []
    for p in positions:
        kind = rng.random()
        if kind < 0.45:
            w = rng.choice(vocab)
            while w == src[p]:
                w = rng.choice(vocab)
            edits.append(sub(p, src[p], w))
        elif kind < 0.7:
            edits.append(red(p, src[p]))
        else:
            edits.append(miss(p, [rng.choice(vocab)]))
    return edits


def build_ensemble_corpus(seed=0, n_sentences=220, n_gold_systems=3,
                          n_noise_systems=3):
    """Synthetic multi-system GEC corpus.

    Gold systems output exactly the gold correction; noise systems output
    the gold correction plus spurious edits.  All planted edits are kept
    two or more positions apart so the word aligner recovers them exactly.
    Returns (sources, gold_targets, hypotheses) with hypotheses a list of
    per-system sentence lists, gold systems first.
    """
    rng = random.Random(seed)
    sources, golds, hyps = [], [], [[] for _ in range(n_gold_systems + n_noise_systems)]
    for _ in range(n_sentences):
        n = rng.randint(8, 14)
        src = random_tokens(rng, n, SRC_VOCAB)
        gold_pos = _spaced_positions(rng, n, rng.randint(1, 3), [])
        gold_edits = _planted_edits(rng, src, gold_pos, EDIT_VOCAB)
        gold = apply_edits(src, make_script(gold_edits))
        sources.append(src)
        golds.append(gold)
        for g in range(n_gold_systems):
            hyps[g].append(list(gold))
        for offset in range(n_noise_systems):
            noise_pos = _spaced_positions(
                rng, n, rng.randint(1, 2), list(gold_pos))
            noisy = gold_edits + _planted_edits(rng, src, noise_pos, NOISE_VOCAB)
            hyps[n_gold_systems + offset].append(
                apply_edits(src, make_script(noisy)))
    return sources, golds, hyps


# --- Child processes ----------------------------------------------------

def child_env() -> dict:
    """This environment, with the tested package importable in a child process."""
    src_dir = str(Path(gecsyntax.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}


def has_vmhwm() -> bool:
    """Whether this platform reports peak resident size as ``VmHWM``."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False
