"""Batch command-line surface for the toolkit.

Subcommands cover edit extraction (``align``), tree projection
(``project``), the pseudo-node ablation (``strip``), subword conversion
(``subword``), the numeric self-check (``gcn-check``), the
edit-ensemble selector (``ensemble-train``, ``ensemble-apply``) and
edit-level scoring (``score``).

Exit codes: 0 on success, 2 on input-format errors (reported with line
numbers) and on training settings out of range or training that diverges,
1 when a numeric self-check fails.  Set ``CSYN_LOG`` to a level
name (debug, info, warning, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import logging
import math
import os
import sys
from typing import Iterable, Iterator

import numpy as np

from . import ensemble, gcn, graph, projection, scoring, subword
from . import edits as ed
from . import tree as T
from .checks import (
    edge_encode_reference, gcn_gradient_check, sample_kink_free_instance,
)
from .errors import FormatError
from .lines import read_lines

logger = logging.getLogger("gecsyntax")


def _read_token_lines(path: str) -> list[list[str]]:
    return [line.split() for line in read_lines(path)]


def read_parallel_tsv(path: str) -> Iterator[tuple[list[str], list[str]]]:
    for lineno, line in enumerate(read_lines(path), start=1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(
                f"expected 'source<TAB>target', got {len(fields)} field(s)",
                lineno, path)
        yield fields[0].split(), fields[1].split()


def _read_tree_file(path: str) -> Iterator[T.NonTerminal]:
    return T.read_trees(read_lines(path), path)


_MISSING = object()


def _lockstep(first: Iterable, first_path: str, second: Iterable, second_path: str):
    """``(lineno, a, b)`` for the items of two line-parallel streams.

    Raises :class:`FormatError` at the first line that only one file has.
    """
    for lineno, (a, b) in enumerate(
            itertools.zip_longest(first, second, fillvalue=_MISSING), start=1):
        if a is _MISSING or b is _MISSING:
            short, other = ((first_path, second_path) if a is _MISSING
                            else (second_path, first_path))
            raise FormatError(f"file ends, but {other} goes on", lineno, short)
        yield lineno, a, b


@contextlib.contextmanager
def _out_stream(path: str | None):
    """Standard output, or the file ``path`` written whole or not at all.

    The file is written under a temporary name in its own directory and
    renamed into place on success; on any error the temporary file is
    removed and an existing output file is left as it was.  OS errors
    on the temporary file or the rename name ``path``.
    """
    if not path:
        yield sys.stdout
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(f"cannot write {path}: {exc.strerror}") from None
        raise


def cmd_align(args) -> int:
    pairs = read_parallel_tsv(args.parallel)
    with _out_stream(args.output) as out:
        if args.format == "m2":
            ed.write_m2(((src, ed.align(src, tgt)) for src, tgt in pairs), out)
        else:
            for src, tgt in pairs:
                out.write(ed.script_to_json(ed.align(src, tgt)) + "\n")
    return 0


def cmd_project(args) -> int:
    summary = projection.ProjectionSummary()
    lines = _lockstep(read_parallel_tsv(args.parallel), args.parallel,
                      _read_tree_file(args.trees), args.trees)
    with _out_stream(args.output) as out:
        for lineno, (src, tgt), tree in lines:
            result = projection.project_pair(src, tgt, tree, summary, lineno,
                                             placement=args.pseudo_placement)
            if result is not None:
                out.write(T.serialize(result) + "\n")
    summary_json = json.dumps(summary.to_dict(), sort_keys=True)
    if args.summary:
        with _out_stream(args.summary) as fh:
            fh.write(summary_json + "\n")
    else:
        print(summary_json, file=sys.stderr)
    return 0


def cmd_strip(args) -> int:
    with _out_stream(args.output) as out:
        for lineno, tree in enumerate(_read_tree_file(args.trees), start=1):
            try:
                stripped = projection.strip_pseudo(tree)
            except ValueError as exc:
                raise FormatError(str(exc), lineno, args.trees) from None
            out.write(T.serialize(stripped) + "\n")
    return 0


def cmd_subword(args) -> int:
    segmentation = subword.read_segmentation(read_lines(args.segmentation),
                                             args.segmentation)
    lines = _lockstep(_read_tree_file(args.trees), args.trees,
                      segmentation, args.segmentation)
    with _out_stream(args.output) as out:
        for lineno, tree, seg in lines:
            try:
                converted = subword.to_subword_tree(
                    tree, seg, marker=args.marker, style=args.marker_style)
            except ValueError as exc:
                raise FormatError(str(exc), lineno, args.segmentation) from None
            out.write(T.serialize(converted) + "\n")
    return 0


def cmd_gcn_check(args) -> int:
    trees = T.load_tree_file(args.trees)
    graphs = [graph.build_graph(t) for t in trees]
    labels = sorted({lab for g in graphs for lab in g.nt_labels})
    ok = True
    for idx, g in enumerate(graphs, start=1):
        stack, inits = sample_kink_free_instance(
            g, labels, args.d, args.layers, seed=args.seed + 1000 * idx,
            self_loops=args.self_loops)
        encoded = gcn.gcn_encode(g, inits, stack)
        oracle_diff = float(np.max(np.abs(
            encoded - edge_encode_reference(g, inits, stack))))
        grad_err = gcn_gradient_check(g, inits, stack,
                                      np.random.default_rng(args.seed + idx))
        line_ok = oracle_diff <= 1e-6 and grad_err <= 1e-4
        ok = ok and line_ok
        print(f"tree {idx}: nodes={g.num_nodes} edges={g.num_edges} "
              f"oracle_diff={oracle_diff:.3e} grad_rel_err={grad_err:.3e} "
              f"{'ok' if line_ok else 'FAIL'}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def _load_ensemble_inputs(args):
    src = _read_token_lines(args.source)
    hyps = [_read_token_lines(p) for p in args.hypotheses]
    for p, hyp in zip(args.hypotheses, hyps):
        if len(hyp) != len(src):
            raise FormatError(
                f"{len(hyp)} lines but source has {len(src)}", path=p)
    return src, hyps


def _check_training_settings(args) -> None:
    """:class:`FormatError` naming the first flag out of its range."""
    for flag, value, in_range, bound in (
            ("--lr", args.lr, args.lr > 0, "> 0"),
            ("--l2", args.l2, args.l2 >= 0, ">= 0"),
            ("--epochs", args.epochs, args.epochs >= 0, ">= 0")):
        if not (in_range and math.isfinite(value)):
            raise FormatError(f"{flag} must be finite and {bound}, got {value}")


def cmd_ensemble_train(args) -> int:
    _check_training_settings(args)
    src, hyps = _load_ensemble_inputs(args)
    gold_blocks = ed.load_m2_file(args.gold)
    if len(gold_blocks) != len(src):
        raise FormatError(
            f"{len(gold_blocks)} gold blocks but source has {len(src)} lines",
            path=args.gold)
    candidates: list[ensemble.EditCandidate] = []
    labels: list[float] = []
    for lineno, (tokens, (gold_src, gold_script)) in enumerate(
            zip(src, gold_blocks), start=1):
        if gold_src != tokens:
            raise FormatError("gold source does not match source file",
                              lineno, args.gold)
        sent_cands = ensemble.gather(tokens, [h[lineno - 1] for h in hyps])
        candidates.extend(sent_cands)
        labels.extend(ensemble.label_candidates(sent_cands, gold_script))
    if not candidates:
        raise FormatError("no edits proposed by any system; nothing to train on")
    try:
        model = ensemble.train(candidates, labels, lr=args.lr, epochs=args.epochs,
                               l2=args.l2, threshold=args.threshold)
    except ValueError as exc:
        raise FormatError(f"--lr {args.lr} --l2 {args.l2}: {exc}") from None
    payload = json.dumps(ensemble.model_to_dict(model), sort_keys=True)
    with _out_stream(args.output) as out:
        out.write(payload + "\n")
    if logger.isEnabledFor(logging.INFO):
        probs = model.predict_proba(ensemble.feature_matrix(candidates))
        acc = float(np.mean((probs >= model.threshold) == np.asarray(labels, bool)))
        logger.info("trained on %d candidates, final loss %.6f, accuracy %.4f",
                    len(candidates), model.final_loss, acc)
    return 0


def cmd_ensemble_apply(args) -> int:
    src, hyps = _load_ensemble_inputs(args)
    model = ensemble.load_model(args.model)
    if len(model.weights) != len(ensemble.feature_names(len(hyps))):
        raise FormatError(f"{len(model.weights)} weights do not fit "
                          f"{len(hyps)} hypothesis files", path=args.model)
    if args.threshold is not None:
        model.threshold = args.threshold
    with _out_stream(args.output) as out:
        for i, tokens in enumerate(src):
            cands = ensemble.gather(tokens, [h[i] for h in hyps])
            out.write(" ".join(ensemble.select_and_apply(tokens, cands, model)) + "\n")
    return 0


def cmd_score(args) -> int:
    hyp_blocks = ed.load_m2_file(args.hypothesis)
    gold_blocks = ed.load_m2_file(args.gold)
    if len(hyp_blocks) != len(gold_blocks):
        raise FormatError(
            f"{len(hyp_blocks)} hypothesis blocks vs {len(gold_blocks)} gold blocks",
            path=args.hypothesis)
    for idx, ((hs, _), (gs, _)) in enumerate(zip(hyp_blocks, gold_blocks), start=1):
        if hs != gs:
            raise FormatError(
                f"block {idx}: hypothesis and gold source sentences differ",
                path=args.hypothesis)
    result = scoring.corpus_score(
        (h, g) for (_, h), (_, g) in zip(hyp_blocks, gold_blocks))
    with _out_stream(args.output) as out:
        out.write(result.to_json() + "\n")
    print(result.summary(), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gecsyntax",
        description="Error-aware constituency trees and edit ensembles for GEC.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="extract per-line edit scripts as JSON")
    p.add_argument("parallel", help="TSV file: source<TAB>target per line")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=("json", "m2"), default="json",
                   help="JSON lines (default) or S/A edit blocks")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("project", help="project target trees onto source sentences")
    p.add_argument("parallel")
    p.add_argument("trees", help="one bracketed target tree per line")
    p.add_argument("-o", "--output")
    p.add_argument("--summary", help="write the JSON summary here instead of stderr")
    p.add_argument("--pseudo-placement", choices=projection.PLACEMENTS,
                   default="below")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("strip", help="remove pseudo nodes from trees")
    p.add_argument("trees")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_strip)

    p = sub.add_parser("subword", help="convert word-level trees to subword level")
    p.add_argument("trees")
    p.add_argument("segmentation", help="TAB-separated words, space-separated pieces")
    p.add_argument("-o", "--output")
    p.add_argument("--marker", default="@@")
    p.add_argument("--marker-style", choices=("prefix", "suffix"), default="prefix")
    p.set_defaults(func=cmd_subword)

    p = sub.add_parser("gcn-check", help="verify the encoder against a per-edge "
                                         "reference and finite differences")
    p.add_argument("trees")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--self-loops", action="store_true")
    p.set_defaults(func=cmd_gcn_check)

    p = sub.add_parser("ensemble-train", help="train the edit selector")
    p.add_argument("source")
    p.add_argument("hypotheses", nargs="+")
    p.add_argument("gold", help="gold edits in S/A block format")
    p.add_argument("-o", "--output")
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_ensemble_train)

    p = sub.add_parser("ensemble-apply", help="apply a trained edit selector")
    p.add_argument("source")
    p.add_argument("hypotheses", nargs="+")
    p.add_argument("model")
    p.add_argument("-o", "--output")
    p.add_argument("--threshold", type=float, default=None,
                   help="override the model's stored threshold")
    p.set_defaults(func=cmd_ensemble_apply)

    p = sub.add_parser("score", help="edit-level P/R/F0.5 of hypothesis vs gold")
    p.add_argument("hypothesis", help="hypothesis edits in S/A block format")
    p.add_argument("gold")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("CSYN_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
