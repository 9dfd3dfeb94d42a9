"""In-process workload drivers, for the traced run and for encode.

    python bench/inproc.py WORKLOAD INPUT_DIR OUTPUT_DIR --spans 0|1

For ``treebank`` and ``ensemble`` the driver runs the workload's own CLI
command chain in this one process, calling ``gecsyntax.cli.main`` once per
command.  With ``--spans 1`` the library functions the CLI reaches are
first pointed at traced versions (see ``spans.py``), so every call is
recorded as a span.  ``encode`` has no CLI command: its driver calls the
graph, GCN and attention functions itself, and this process with spans off
is also its end-to-end process.

Writes ``OUTPUT_DIR/inproc.json``: the wall time of the work (imports
excluded), the per-layer summary of the spans and, for encode, the
per-sentence latencies.  With spans on, also ``OUTPUT_DIR/spans.tsv``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from gecsyntax import cli
from gecsyntax import edits as E
from gecsyntax import ensemble as ens
from gecsyntax import projection as P
from gecsyntax import scoring
from gecsyntax import subword as S
from gecsyntax import tree as T
from gecsyntax.attention import cross_attention_backward, dual_combine, init_attention
from gecsyntax.gcn import encode_backward, fuse, gcn_encode, init_stack
from gecsyntax.graph import build_graph, build_graph_dep

from run import STEPS
from spans import Tracer

LARGE_GRAPH = 128  # nodes; OpenBLAS starts threading a 64-wide matmul near here
SAMPLE_EVERY = 40  # encode: every 40th sentence is kept for the output checks


# --- counters, called after a span closes --------------------------------

def _count_nodes(counts, args, tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        counts["tree.nodes"] += 1
        if isinstance(node, T.NonTerminal):
            stack.extend(node.children)


def _count_cells(counts, args, script):
    counts["edits.align.cells"] += len(args[0]) * len(args[1])


def _count_pseudo(counts, args, result):
    counts["projection.pseudo_nodes"] += len(result.inserted)


def _count_pieces(counts, args, tree):
    counts["subword.pieces"] += sum(len(p) for p in args[1])


def _count_graph(counts, args, graph):
    counts["graph.nodes"] += graph.num_nodes
    counts["graph.edges"] += graph.num_edges


def _gcn_flops(args, backward):
    graph, _, stack = args[:3]
    n, m, d = graph.num_nodes, graph.num_edges, stack.d
    # Per layer: H @ W.T, one d-row add per directed edge, bias; the
    # backward pass recomputes the forward, then routes d_pre back along
    # the edges and forms dW and the input gradient with two more matmuls.
    per_layer = 2 * n * d * d + 2 * m * d + n * d
    if backward:
        per_layer += 4 * n * d * d + 2 * m * d + n * d
    return len(stack.layers) * per_layer


def _count_gcn_forward(counts, args, result):
    counts["gcn.flops"] += _gcn_flops(args, backward=False)


def _count_gcn_backward(counts, args, result):
    counts["gcn.flops"] += _gcn_flops(args, backward=True)


def _attention_flops(m, k, d, backward):
    # Matmuls only: projections of Q, K, V, then scores and weighted sum;
    # the backward pass adds four m x k x d products and three projections.
    if backward:
        return 4 * d * d * (m + 2 * k) + 10 * m * k * d
    return 2 * d * d * (m + 2 * k) + 4 * m * k * d


def _count_dual(counts, args, result):
    q, mem_c, mem_d = args[:3]
    m, d = q.shape
    counts["attention.flops"] += (_attention_flops(m, mem_c.shape[0], d, False)
                                  + _attention_flops(m, mem_d.shape[0], d, False))


def _count_attention_backward(counts, args, result):
    q, mem = args[:2]
    counts["attention.flops"] += _attention_flops(q.shape[0], mem.shape[0],
                                                  q.shape[1], True)


def _count_kept(counts, args, result):
    counts["ensemble.candidates"] += len(args[1])
    counts["ensemble.kept"] += len(ens.select_edits(args[1], args[2]))


def _graph_size(args):
    return "large" if args[0].num_nodes > LARGE_GRAPH else "small"


# --- drivers ----------------------------------------------------------------

def _parse_file(parse, path):
    with open(path, encoding="utf-8") as fh:
        return [parse(line.strip(), lineno) for lineno, line in enumerate(fh, start=1)]


# The traced functions the CLI reaches, as (module, attribute, counter).
CLI_TRACED = [
    (T, "parse_bracketed", _count_nodes),
    (T, "serialize", None),
    (E, "align", _count_cells),
    (P, "project", _count_pseudo),
    (P, "strip_pseudo", None),
    (S, "to_subword_tree", _count_pieces),
    (E, "load_m2_file", None),
    (E, "write_m2", None),
    (ens, "gather", None),
    (ens, "train", None),
    (ens, "select_and_apply", _count_kept),
    (scoring, "corpus_score", None),
]


def cli_chain(workload: str):
    """The workload's command chain run in this process, through ``cli.main``.

    Each command runs inside its ``stage.<command>`` span, after the
    library functions it reaches are pointed at traced versions.
    """

    def driver(tr: Tracer, inp: Path, out: Path) -> dict:
        for module, attr, count in CLI_TRACED:
            tr.patch(module, attr, f"{module.__name__.split('.')[-1]}.{attr}", count=count)
        for step in STEPS[workload](inp, out):
            if step.prepare is not None:
                step.prepare()
            with tr.span(f"stage.{step.name}"):
                code = cli.main([str(a) for a in step.cli_args])
            if code != 0:
                raise SystemExit(f"{step.name} exited {code}")
        summary = out / "summary.json"
        if summary.exists():
            tr.counts["projection.skipped"] = json.loads(summary.read_text())["skipped"]
        return {}

    return driver


def encode(tr: Tracer, inp: Path, out: Path) -> dict:
    """Graphs, GCN forward/backward, dual cross-attention and fusion per sentence."""
    parse = tr.wrap("tree.parse_bracketed", T.parse_bracketed, count=_count_nodes)
    graph_c = tr.wrap("graph.build_graph", build_graph, count=_count_graph)
    graph_d = tr.wrap("graph.build_graph_dep", build_graph_dep, count=_count_graph)
    forward = tr.wrap("gcn.gcn_encode", gcn_encode, count=_count_gcn_forward,
                      tag=_graph_size)
    backward = tr.wrap("gcn.encode_backward", encode_backward,
                       count=_count_gcn_backward, tag=_graph_size)
    combine = tr.wrap("attention.dual_combine", dual_combine, count=_count_dual)
    att_backward = tr.wrap("attention.cross_attention_backward",
                           cross_attention_backward, count=_count_attention_backward)

    cfg = json.loads((inp / "params.json").read_text(encoding="utf-8"))
    d, layers, seed = cfg["d"], cfg["layers"], cfg["param_seed"]
    stack_c = init_stack(cfg["labels"], d, layers, seed=seed)
    stack_d = init_stack([], d, layers, seed=seed + 1)
    att_c = init_attention(d, seed=seed + 2)
    att_d = init_attention(d, seed=seed + 3)

    trees = _parse_file(parse, inp / "sentences.trees")
    with open(inp / "heads.txt", encoding="utf-8") as fh:
        heads = [[int(h) for h in line.split()] for line in fh]
    pieces = [T.yield_tokens(t) for t in trees]
    vocab = {p: i for i, p in enumerate(sorted({p for s in pieces for p in s}))}
    table = np.random.default_rng(seed + 4).uniform(-0.5, 0.5, (len(vocab), d))

    latencies = []
    samples: dict[str, np.ndarray] = {}
    for idx, (tree, sent_heads, sent_pieces) in enumerate(zip(trees, heads, pieces)):
        x = table[[vocab[p] for p in sent_pieces]]
        start = perf_counter()
        g_c = graph_c(tree)
        g_d = graph_d(sent_heads)
        h_c = forward(g_c, x, stack_c)
        backward(g_c, x, stack_c)
        h_d = forward(g_d, x, stack_d)
        backward(g_d, x, stack_d)
        ctx = combine(x, h_c, h_d, "independent", params_const=att_c, params_dep=att_d)
        att_backward(x, h_c, att_c)
        att_backward(x, h_d, att_d)
        fused = fuse(ctx, x, cfg["lam"])
        latencies.append(perf_counter() - start)
        if idx % SAMPLE_EVERY == 0:
            for key, arr in (("x", x), ("h_c", h_c), ("h_d", h_d), ("ctx", ctx),
                             ("fused", fused)):
                samples[f"{key}_{idx}"] = arr

    params = {"E_nt": stack_c.E_nt}
    for name, stack in (("c", stack_c), ("d", stack_d)):
        for l, layer in enumerate(stack.layers):
            params[f"W_{name}{l}"] = layer.W
            params[f"b_{name}{l}"] = layer.b
    for name, att in (("c", att_c), ("d", att_d)):
        for key in ("Wq", "Wk", "Wv"):
            params[f"{key}_{name}"] = getattr(att, key)
    np.savez(out / "encode_samples.npz", **samples, **params)
    return {"latencies_s": latencies}


DRIVERS = {"treebank": cli_chain("treebank"), "encode": encode,
           "ensemble": cli_chain("ensemble")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(DRIVERS))
    parser.add_argument("input_dir", type=Path)
    parser.add_argument("output_dir", type=Path)
    parser.add_argument("--spans", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with Tracer(enabled=bool(args.spans)) as tr:
        start = perf_counter()
        extra = DRIVERS[args.workload](tr, args.input_dir, args.output_dir)
        wall = perf_counter() - start
    layers = tr.summary()
    if tr.enabled:
        if layers.get("ensemble.candidates"):
            layers["ensemble.kept_ratio"] = (layers.pop("ensemble.kept")
                                             / layers["ensemble.candidates"])
        tr.write(args.output_dir / "spans.tsv")
    report = {"wall_s": wall, "layers": layers, **extra}
    (args.output_dir / "inproc.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
