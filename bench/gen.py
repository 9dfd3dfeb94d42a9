"""Seeded input generators for the three benchmark workloads.

Every input comes from the seed, through the ``tests/helpers.py`` fixtures
and the code below, never from the output of the program under test.  Each
generator writes its files into a directory and returns the parameters it
used; the benchmark records those parameters with its results.  The
generators call a few library helpers (``apply_edits``, ``serialize``,
``align`` for the gold edits); the input digests stored for the default
seeds catch a library change that would alter the inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from gecsyntax import edits as E
from gecsyntax import tree as T
from tests.helpers import (
    PHRASE_LABELS, POS_LABELS, SRC_VOCAB, build_ensemble_corpus, random_script,
    random_tokens, random_tree,
)

MARKER = "@@"
PSEUDO = ("SUB", "RED", "MISS")


def segment(word: str, rng: random.Random, max_pieces: int = 3) -> list[str]:
    """Split a word into 1..max_pieces subword pieces, prefix-marker style."""
    k = rng.randint(1, min(max_pieces, len(word)))
    cuts = sorted(rng.sample(range(1, len(word)), k - 1))
    bounds = [0, *cuts, len(word)]
    pieces = [word[bounds[i]:bounds[i + 1]] for i in range(k)]
    return [pieces[0]] + [MARKER + p for p in pieces[1:]]


def treebank(out: Path, seed: int, size: int) -> dict:
    """The criterion-9 corpus: pairs, target trees and a segmentation.

    The pair and tree stream is drawn exactly as the throughput acceptance
    test draws it; the segmentation has its own stream so it leaves that
    one untouched.
    """
    params = {"pairs": size, "tokens": [10, 20], "sub_prob": 0.08,
              "red_prob": 0.05, "miss_prob": 0.04, "unary_prob": 0.05,
              "max_pieces": 3, "marker": MARKER}
    rng = random.Random(seed)
    seg_rng = random.Random(f"segmentation:{seed}")
    with open(out / "pairs.tsv", "w", encoding="utf-8") as pairs, \
            open(out / "targets.trees", "w", encoding="utf-8") as trees, \
            open(out / "seg.tsv", "w", encoding="utf-8") as seg:
        for _ in range(size):
            src = random_tokens(rng, rng.randint(10, 20), SRC_VOCAB)
            script = random_script(src, rng, SRC_VOCAB, sub_prob=0.08,
                                   red_prob=0.05, miss_prob=0.04)
            tgt = E.apply_edits(src, script)
            pairs.write(" ".join(src) + "\t" + " ".join(tgt) + "\n")
            trees.write(T.serialize(random_tree(tgt, rng, unary_prob=0.05)) + "\n")
            seg.write("\t".join(" ".join(segment(w, seg_rng)) for w in src) + "\n")
    return params


def _error_aware_subword_tree(tokens, rng: random.Random) -> T.NonTerminal:
    """A random tree whose words carry pseudo nodes and are split into pieces.

    Each word becomes its pieces, wrapped in a SUB, RED or MISS node (MISS
    may sit above SUB) with the rates of the treebank workload, so the
    trees look like projected, subword-converted parser training data.
    """
    root = random_tree(tokens, rng, unary_prob=0.05)
    stack = [root]
    while stack:
        node = stack.pop()
        new_children = []
        for child in node.children:
            if isinstance(child, T.NonTerminal):
                stack.append(child)
                new_children.append(child)
                continue
            unit: T.Node | list[T.Node] = [
                T.Terminal(p) for p in segment(child.token, rng)]
            r = rng.random()
            if r < 0.08:
                unit = T.NonTerminal("SUB", unit)
                if rng.random() < 0.25:
                    unit = T.NonTerminal("MISS", [unit])
            elif r < 0.13:
                unit = T.NonTerminal("RED", unit)
            elif r < 0.17:
                unit = T.NonTerminal("MISS", unit)
            new_children.extend(unit if isinstance(unit, list) else [unit])
        node.children = new_children
    return root


def _random_heads(n: int, rng: random.Random) -> list[int]:
    """1-based heads of a random single-rooted dependency tree over n tokens."""
    order = rng.sample(range(n), n)
    heads = [0] * n
    for k in range(1, n):
        heads[order[k]] = order[rng.randrange(k)] + 1
    return heads


def encode(out: Path, seed: int, size: int) -> dict:
    """Subword-level error-aware trees and dependency heads over their pieces.

    About 85% of sentences have 10-30 words and 15% have 40-100, so the
    constituency graphs run from about 30 to 500 nodes.
    """
    params = {"sentences": size, "short_words": [10, 30], "long_words": [40, 100],
              "long_share": 0.15, "max_pieces": 3, "d": 64, "layers": 3,
              "lam": 0.5, "labels": sorted({*PHRASE_LABELS, *POS_LABELS, *PSEUDO}),
              "param_seed": seed}
    rng = random.Random(seed)
    with open(out / "sentences.trees", "w", encoding="utf-8") as trees, \
            open(out / "heads.txt", "w", encoding="utf-8") as heads:
        for _ in range(size):
            if rng.random() < 0.15:
                n = rng.randint(40, 100)
            else:
                n = rng.randint(10, 30)
            tree = _error_aware_subword_tree(random_tokens(rng, n, SRC_VOCAB), rng)
            trees.write(T.serialize(tree) + "\n")
            pieces = sum(1 for _ in T.terminals(tree))
            heads.write(" ".join(map(str, _random_heads(pieces, rng))) + "\n")
    (out / "params.json").write_text(json.dumps(params, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return params


def ensemble(out: Path, seed: int, size: int) -> dict:
    """``build_ensemble_corpus``: 3 gold and 3 noisy systems, gold edits as .m2."""
    params = {"sentences": size, "gold_systems": 3, "noise_systems": 3}
    sources, golds, hyps = build_ensemble_corpus(seed=seed, n_sentences=size)
    with open(out / "src.txt", "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(s) + "\n" for s in sources)
    for k, hyp in enumerate(hyps, start=1):
        with open(out / f"hyp{k}.txt", "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(s) + "\n" for s in hyp)
    with open(out / "gold.m2", "w", encoding="utf-8") as fh:
        for n, (src, gold) in enumerate(zip(sources, golds)):
            fh.write(("\n" if n else "") + "S " + " ".join(src) + "\n")
            for e in E.align(src, gold):
                fh.write(f"A {e.i} {e.j}|||{e.category}|||{' '.join(e.tgt_tokens)}\n")
    return params


GENERATORS = {"treebank": treebank, "encode": encode, "ensemble": ensemble}
