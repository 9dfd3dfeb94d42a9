"""Output checks, run after timing and outside the timed region.

Tree outputs are read with the small bracket scanner below rather than
with the library's parser, and the encoder is checked against the dense
oracle in ``tests/helpers.py`` and a plain numpy attention, so no check
compares the code under test with itself.  Each check returns the set of
failed item indices (0-based) and a list of messages; a corpus-level
failure fails every item.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from gecsyntax import edits as E
from tests.helpers import gcn_dense_oracle

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
PSEUDO = ("SUB", "RED", "MISS")
MARKER = "@@"


def scan_tree(line: str):
    """(leaves, whether each leaf sits under RED, labels in pre-order)."""
    toks = _TOKEN_RE.findall(line)
    leaves, under_red, labels, open_labels = [], [], [], []
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok == "(":
            open_labels.append(toks[i + 1])
            labels.append(toks[i + 1])
            i += 2
            continue
        if tok == ")":
            open_labels.pop()
        else:
            leaves.append(tok)
            under_red.append("RED" in open_labels)
        i += 1
    return leaves, under_red, labels


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().split("\n")[:-1]


def _every(n: int) -> set[int]:
    return set(range(n))


def _reassemble(pieces: list[str], segmentation: list[list[str]]) -> list[str] | None:
    """Words rebuilt from a subword yield, split as the segmentation splits them."""
    if len(pieces) != sum(len(word) for word in segmentation):
        return None
    words, k = [], 0
    for word in segmentation:
        first, *rest = pieces[k:k + len(word)]
        k += len(word)
        words.append(first + "".join(p.removeprefix(MARKER) for p in rest))
    return words


def treebank(inp: Path, out: Path, n: int):
    sources = [line.split("\t")[0].split() for line in _lines(inp / "pairs.tsv")]
    segs = [[w.split() for w in line.split("\t")] for line in _lines(inp / "seg.tsv")]
    projected = _lines(out / "source.trees")
    subword = _lines(out / "sub.trees")
    stripped = _lines(out / "stripped.trees")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if summary["pairs"] != n or summary["skipped"] or not (
            len(projected) == len(subword) == len(stripped) == n):
        return _every(n), [f"summary {summary} or output line counts "
                           f"{len(projected)}/{len(subword)}/{len(stripped)} != {n}"]

    failed, found = set(), {label: 0 for label in PSEUDO}
    for i in range(n):
        leaves, under_red, labels = scan_tree(projected[i])
        for label in labels:
            if label in found:
                found[label] += 1
        kept = [w for w, red in zip(leaves, under_red) if not red]
        strip_leaves, _, strip_labels = scan_tree(stripped[i])
        if (leaves != sources[i] or strip_leaves != kept
                or any(label in PSEUDO for label in strip_labels)
                or _reassemble(scan_tree(subword[i])[0], segs[i]) != sources[i]):
            failed.add(i)
    messages = [f"{len(failed)} pairs fail the yield, strip or subword checks"] if failed else []
    if found != summary["pseudo_counts"]:
        messages.append(f"summary pseudo counts {summary['pseudo_counts']} "
                        f"!= pseudo nodes found {found}")
        failed = _every(n)
    return failed, messages


def _graph_from_text(line: str):
    """(labels, graph): terminals are nodes 0..t-1 by position, then labels in pre-order."""
    toks = _TOKEN_RE.findall(line)
    n_term = sum(1 for i, t in enumerate(toks)
                 if t not in "()" and toks[i - 1] != "(")
    labels, edges, stack, pos = [], [], [], 0
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok == "(":
            node = n_term + len(labels)
            labels.append(toks[i + 1])
            if stack:
                edges.append((stack[-1], node))
            stack.append(node)
            i += 2
            continue
        if tok == ")":
            stack.pop()
        else:
            edges.append((stack[-1], pos))
            pos += 1
        i += 1
    return labels, _neighbours(n_term + len(labels), edges)


def _neighbours(n: int, edges) -> SimpleNamespace:
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return SimpleNamespace(num_nodes=n, adjacency=adjacency)


def _attend(q, mem, wq, wk, wv):
    scores = (q @ wq) @ (mem @ wk).T / np.sqrt(q.shape[1])
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ (mem @ wv)


def encode(inp: Path, out: Path, n: int, latencies: int):
    """Sampled sentences against the dense GCN oracle and a numpy attention."""
    if latencies != n:
        return _every(n), [f"{latencies} sentence latencies for {n} sentences"]
    cfg = json.loads((inp / "params.json").read_text(encoding="utf-8"))
    trees = _lines(inp / "sentences.trees")
    heads = [[int(h) for h in line.split()] for line in _lines(inp / "heads.txt")]
    data = np.load(out / "encode_samples.npz")
    rows = {label: r for r, label in enumerate(cfg["labels"])}
    samples = sorted(int(k[2:]) for k in data.files if k.startswith("x_"))
    if not samples:
        return _every(n), ["no sampled sentences to check"]
    failed = set()
    for idx in samples:
        x = data[f"x_{idx}"]
        labels, g_c = _graph_from_text(trees[idx])
        g_d = _neighbours(len(heads[idx]), [(i, h - 1) for i, h in
                                            enumerate(heads[idx]) if h])
        h_c = np.vstack([x, data["E_nt"][[rows[lab] for lab in labels]]])
        h_d = x
        for layer in range(cfg["layers"]):
            h_c = gcn_dense_oracle(g_c, h_c, data[f"W_c{layer}"], data[f"b_c{layer}"])
            h_d = gcn_dense_oracle(g_d, h_d, data[f"W_d{layer}"], data[f"b_d{layer}"])
        ctx = (_attend(x, h_c, data["Wq_c"], data["Wk_c"], data["Wv_c"])
               + _attend(x, h_d, data["Wq_d"], data["Wk_d"], data["Wv_d"]))
        fused = cfg["lam"] * ctx + (1.0 - cfg["lam"]) * x
        for want, key in ((h_c, "h_c"), (h_d, "h_d"), (ctx, "ctx"), (fused, "fused")):
            got = data[f"{key}_{idx}"]
            if got.shape != want.shape or not np.allclose(got, want, rtol=1e-9, atol=1e-9):
                failed.add(idx)
    messages = [f"{len(failed)} of {len(samples)} sampled sentences differ "
                f"from the oracles"] if failed else []
    return failed, messages


def _m2_identities(path: Path):
    """Per block: (source line, set of edit identities), read from the text."""
    blocks = []
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        block = block.strip("\n")
        if not block:
            continue
        s_line, *a_lines = block.split("\n")
        edits = set()
        for line in a_lines:
            span, cat, tgt = line[2:].split("|||")
            i, j = map(int, span.split())
            edits.add((cat, i, j, tuple(tgt.split())))
        blocks.append((s_line[2:], edits))
    return blocks


def ensemble(inp: Path, out: Path, n: int, expected_f05: float | None):
    """Output shape, selector-beats-union precision, and the stored F0.5."""
    sources = _lines(inp / "src.txt")
    outputs = _lines(out / "out.txt")
    hyp_blocks = _m2_identities(out / "hyp.m2")
    gold = _m2_identities(inp / "gold.m2")
    score = json.loads((out / "score.json").read_text(encoding="utf-8"))
    if len(outputs) != n or len(hyp_blocks) != n:
        return _every(n), [f"{len(outputs)} output lines and {len(hyp_blocks)} "
                           f"edit blocks for {n} sources"], score
    failed = {i for i in range(n) if hyp_blocks[i][0] != sources[i]}
    messages = [f"{len(failed)} edit blocks do not match their source"] if failed else []

    hyps = [_lines(p) for p in sorted(inp.glob("hyp*.txt"))]
    union_tp = union_all = 0
    for i, src in enumerate(sources):
        union = {e.identity() for hyp in hyps
                 for e in E.align(src.split(), hyp[i].split())}
        union_tp += len(union & gold[i][1])
        union_all += len(union)
    union_precision = union_tp / union_all if union_all else 0.0
    gold_edits = sum(len(edits) for _, edits in gold)
    corpus_ok = score["tp"] + score["fn"] == gold_edits
    if not corpus_ok:
        messages.append(f"score tp+fn {score['tp'] + score['fn']} != {gold_edits} gold edits")
    if not score["P"] > union_precision:
        corpus_ok = False
        messages.append(f"selector precision {score['P']} does not beat the "
                        f"edit-union precision {union_precision}")
    if expected_f05 is not None and score["F05"] != expected_f05:
        corpus_ok = False
        messages.append(f"F0.5 {score['F05']} != stored {expected_f05}")
    score["union_precision"] = union_precision
    return (failed if corpus_ok else _every(n)), messages, score
