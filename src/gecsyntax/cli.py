"""Batch command-line surface for the toolkit.

Subcommands cover edit extraction (``align``), tree projection
(``project``), the pseudo-node ablation (``strip``), subword conversion
(``subword``), the numeric self-check (``gcn-check``), the
edit-ensemble selector (``ensemble-train``, ``ensemble-apply``) and
edit-level scoring (``score``).

Every command except ``gcn-check`` streams: line-parallel inputs are
read in lockstep, ``ensemble-train`` keeps only counts of its distinct
feature rows and ``score`` only its edit counts.  ``align`` and
``score`` hold one sentence at a time, writing each output line before
the next input line is read.  They stay serial: pooled, both ran slower
on two cores over the benchmark's 10,000-sentence ensemble chain
(``align`` 0.58 s to 0.83 s wall, ``score`` 0.61 s to 1.08 s), as the
parent's own reading left the second core nothing to do.

``project``, ``subword``, ``strip``, ``ensemble-train`` and
``ensemble-apply`` share one batch protocol.  Each gives a row function,
``row_fn(row, counts, skips) -> text``, over a row of raw lines;
:func:`_run_rows` applies it to a 256-row batch and gives one
:class:`Batch` of text, counts, skipped lines and the first input error,
which ends the batch after the rows before it.  :func:`_run_batches`,
the one consumer, takes the batches in row order: it writes each text,
logs the skips, raises the error and adds up the counts.  So the output
before an error is exactly that of the rows before it.  With at most two
batches per usable CPU in flight, once the input exceeds one batch the
batches run on every CPU in the process's affinity mask (``taskset``
limits this), with output, warnings and errors the same as on one CPU.

A count mismatch is reported as ``path:line N: file ends, but OTHER goes
on`` at the first line (for an ``.m2`` file, the first block) that only
some of the files have; it comes before any error in the contents of
line N.

Each numeric flag's range is part of its argparse ``type``: a value out
of range is rejected by the argument parser before any file is opened.
Exit codes: 0 on success, 2 on input-format errors (reported with line
numbers), on a flag the parser rejects, on training that diverges,
when memory runs out and when a worker process ends abruptly, 1 when a
numeric self-check fails.  Set ``CSYN_LOG`` to a level name (debug,
info, warning, ...) for diagnostics on stderr; any other value means
warning.

Only ``gcn-check``, ``ensemble-train`` and ``ensemble-apply`` import
numpy, inside the command; the other commands start without it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import logging
import math
import os
import sys
from collections import Counter, deque
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import projection, scoring, subword
from . import edits as ed
from . import tree as T
from .errors import FormatError
from .lines import read_lines

logger = logging.getLogger("gecsyntax")


def parse_tsv_line(line: str, lineno: int | None = None,
                   path: str | None = None) -> tuple[list[str], list[str]]:
    """The source and target tokens of one ``source<TAB>target`` line."""
    fields = line.split("\t")
    if len(fields) != 2:
        raise FormatError(f"expected 'source<TAB>target', got {len(fields)} field(s)",
                          lineno, path)
    return fields[0].split(), fields[1].split()


_MISSING = object()


def _lockstep(streams: Sequence[Iterable], paths: Sequence[str]) -> Iterator[tuple]:
    """``(lineno, item, item, ...)``, one item from each line-parallel stream.

    Raises :class:`FormatError` at the first line (for ``.m2`` files, the
    first block) that only some of the files have.
    """
    for lineno, row in enumerate(
            itertools.zip_longest(*streams, fillvalue=_MISSING), start=1):
        if any(item is _MISSING for item in row):
            ended = next(p for p, item in zip(paths, row) if item is _MISSING)
            going = next(p for p, item in zip(paths, row) if item is not _MISSING)
            raise FormatError(f"file ends, but {going} goes on", lineno, ended)
        yield lineno, *row


BATCH_ROWS = 256


def _batches(rows: Iterable) -> Iterator[list]:
    """Consecutive ``BATCH_ROWS``-row lists of ``rows``.

    If reading a row raises, the rows read before it come first, as a
    last, short batch, and the error is raised on the next request.
    """
    rows = iter(rows)
    while True:
        batch = []
        try:
            for row in itertools.islice(rows, BATCH_ROWS):
                batch.append(row)
        except Exception:
            if batch:
                yield batch
            raise
        if not batch:
            return
        yield batch


class Batch(NamedTuple):
    """What a row function made of one batch: the text written for its
    rows, their counts, their skipped ``(lineno, reason)`` rows in line
    order, and the input error that ended the batch, or ``None``."""
    text: str
    counts: Counter
    skips: list[tuple[int, str]]
    error: FormatError | None


RowFn = Callable[[tuple, Counter, list], str]


def _run_rows(row_fn: RowFn, rows: list) -> Batch:
    """``row_fn(row, counts, skips)`` on each of ``rows`` in order.

    A :class:`FormatError` ends the batch: it is returned, not raised,
    after the text, counts and skips of the rows before it.
    """
    counts: Counter = Counter()
    skips: list[tuple[int, str]] = []
    out: list[str] = []
    error = None
    try:
        for row in rows:
            out.append(row_fn(row, counts, skips))
    except FormatError as exc:
        error = exc
    return Batch("".join(out), counts, skips, error)


def _run_batches(out, row_fn: RowFn, rows: Iterable) -> Counter:
    """Run ``row_fn`` over ``BATCH_ROWS``-row batches of ``rows``; gives the
    sum of their counts.

    Batches are taken in row order: each one's text is written to
    ``out``, its skips are logged, its error is raised, and its counts
    are added.  Once there is more than one batch, batches run in a
    ``fork`` pool of one worker per CPU in this process's affinity mask,
    with at most two batches per worker in flight; with one batch or one
    CPU, they run here.  When reading a row raises, the batches before it
    are taken first.  A worker that ends abruptly (killed, or out of
    memory) raises :class:`ChildProcessError`.
    """
    counts: Counter = Counter()

    def take(batch: Batch) -> None:
        out.write(batch.text)
        for lineno, reason in batch.skips:
            logger.warning("line %d: skipped: %s", lineno, reason)
        if batch.error is not None:
            raise batch.error
        counts.update(batch.counts)

    run = functools.partial(_run_rows, row_fn)
    # Platforms without affinity masks (not Linux) run on one CPU.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    batches = _batches(rows)
    head: list[list] = []  # the first two batches, read to pick the path
    if cpus > 1:
        try:
            for batch in batches:
                head.append(batch)
                if len(head) == 2:
                    break
        except Exception:
            for batch in head:
                take(run(batch))
            raise
    if len(head) < 2:
        for batch in itertools.chain(head, batches):
            take(run(batch))
        return counts

    # Imported here: only inputs of more than one batch pay for it.  Forked
    # workers start with the package and the command's state loaded, where
    # spawned ones would import both again.  The command has started no
    # thread and written no output yet, so no worker inherits a held lock
    # or unflushed output.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(cpus, mp_context=multiprocessing.get_context("fork"))
    try:
        pending: deque = deque()
        batches = itertools.chain(head, batches)
        while True:
            try:
                batch = next(batches, None)
            except Exception:
                while pending:
                    take(pending.popleft().result())
                raise
            if batch is None:
                break
            pending.append(pool.submit(run, batch))
            if len(pending) == 2 * cpus:
                take(pending.popleft().result())
        while pending:
            take(pending.popleft().result())
    except BrokenProcessPool:
        raise ChildProcessError(
            "a worker process ended abruptly (killed, or out of memory)") from None
    finally:
        # Waits for the batches already running; the others are dropped.
        pool.shutdown(cancel_futures=True)
    return counts


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
    pairs = (parse_tsv_line(line, lineno, args.parallel)
             for lineno, line in enumerate(read_lines(args.parallel), start=1))
    with _out_stream(args.output) as out:
        if args.format == "m2":
            ed.write_m2(((src, ed.align(src, tgt)) for src, tgt in pairs), out)
        else:
            for src, tgt in pairs:
                out.write(ed.script_to_json(ed.align(src, tgt)) + "\n")
    return 0


def _project_row(paths: Sequence[str], placement: str, row: tuple,
                 counts: Counter, skips: list) -> str:
    """The projected tree of a ``(lineno, pair line, tree line)`` row of
    raw lines.  A pair that cannot be projected (tree yield mismatch,
    pseudo nodes in the target tree, projection failure) is skipped and
    gives ``""``.  Counts ``pairs``, ``skipped`` and each inserted label."""
    lineno, pair, tree_line = row
    src, tgt = parse_tsv_line(pair, lineno, paths[0])
    tree = T.parse_tree_line(tree_line, lineno, paths[1])
    counts["pairs"] += 1
    try:
        result = projection.project(tree, ed.align(src, tgt), src, placement=placement)
    except (ValueError, RuntimeError) as exc:
        skips.append((lineno, str(exc)))
        counts["skipped"] += 1
        return ""
    counts.update(label for label, _ in result.inserted)
    return T.serialize(result.source_tree) + "\n"


def cmd_project(args) -> int:
    paths = [args.parallel, args.trees]
    with _out_stream(args.output) as out:
        counts = _run_batches(
            out, functools.partial(_project_row, paths, args.pseudo_placement),
            _lockstep([read_lines(p) for p in paths], paths))
    summary = {"pairs": counts["pairs"], "skipped": counts["skipped"],
               "pseudo_counts": {label: counts[label] for label in T.PSEUDO_LABELS}}
    summary_json = json.dumps(summary, sort_keys=True)
    if args.summary:
        with _out_stream(args.summary) as fh:
            fh.write(summary_json + "\n")
    else:
        print(summary_json, file=sys.stderr)
    return 0


def _strip_row(path: str, row: tuple, counts: Counter, skips: list) -> str:
    """The stripped tree of a ``(lineno, tree line)`` row."""
    lineno, line = row
    tree = T.parse_tree_line(line, lineno, path)
    try:
        stripped = projection.strip_pseudo(tree)
    except ValueError as exc:
        raise FormatError(str(exc), lineno, path) from None
    return T.serialize(stripped) + "\n"


def cmd_strip(args) -> int:
    with _out_stream(args.output) as out:
        _run_batches(out, functools.partial(_strip_row, args.trees),
                     enumerate(read_lines(args.trees), start=1))
    return 0


def _subword_row(paths: Sequence[str], marker: str, style: str, row: tuple,
                 counts: Counter, skips: list) -> str:
    """The subword tree of a ``(lineno, tree line, segmentation line)`` row."""
    lineno, tree_line, seg_line = row
    tree = T.parse_tree_line(tree_line, lineno, paths[0])
    seg = subword.parse_segmentation_line(seg_line, lineno, paths[1])
    try:
        converted = subword.to_subword_tree(tree, seg, marker=marker, style=style)
    except ValueError as exc:
        raise FormatError(str(exc), lineno, paths[1]) from None
    return T.serialize(converted) + "\n"


def cmd_subword(args) -> int:
    paths = [args.trees, args.segmentation]
    with _out_stream(args.output) as out:
        _run_batches(out, functools.partial(_subword_row, paths, args.marker,
                                            args.marker_style),
                     _lockstep([read_lines(p) for p in paths], paths))
    return 0


def cmd_gcn_check(args) -> int:
    import numpy as np

    from . import gcn, graph
    from .checks import edge_encode_reference, gcn_gradient_check

    trees = list(T.read_trees(read_lines(args.trees), args.trees))
    graphs = [graph.build_graph(t) for t in trees]
    labels = sorted({lab for g in graphs for lab in g.nt_labels})
    ok = True
    for idx, g in enumerate(graphs, start=1):
        seed = args.seed + 1000 * idx
        stack = gcn.init_stack(labels, args.d, args.layers, seed=seed)
        inits = np.random.default_rng(seed + 7919).standard_normal(
            (g.num_terminals, args.d))
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


def _train_row(gold_path: str, row: tuple, counts: Counter, skips: list) -> str:
    """Adds the feature-row counts of a ``(lineno, source, *hypotheses,
    gold block)`` row of raw lines to ``counts``; gives no text."""
    from . import ensemble

    lineno, source, *hyps, (gold_lineno, gold_lines) = row
    tokens = source.split()
    gold_src, gold_script = ed.parse_m2_block(gold_lineno, gold_lines, gold_path)
    if gold_src != tokens:
        raise FormatError("gold source does not match source file", lineno, gold_path)
    cands = ensemble.gather(tokens, [h.split() for h in hyps])
    counts.update(ensemble.row_counts(
        zip(cands, ensemble.label_candidates(cands, gold_script))))
    return ""


def cmd_ensemble_train(args) -> int:
    from . import ensemble

    paths = [args.source, *args.hypotheses, args.gold]
    streams = [*map(read_lines, paths[:-1]), ed.m2_blocks(read_lines(args.gold), args.gold)]
    # The rows give no text, so nothing is written to the sink.
    counts = _run_batches(io.StringIO(), functools.partial(_train_row, args.gold),
                          _lockstep(streams, paths))
    if not counts:
        raise FormatError("no edits proposed by any system; nothing to train on")
    try:
        model = ensemble.train(counts=counts, lr=args.lr, epochs=args.epochs,
                               l2=args.l2, threshold=args.threshold)
    except ValueError as exc:
        raise FormatError(f"--lr {args.lr} --l2 {args.l2}: {exc}") from None
    payload = json.dumps(ensemble.model_to_dict(model), sort_keys=True)
    with _out_stream(args.output) as out:
        out.write(payload + "\n")
    logger.info("trained on %d candidates, final loss %.6f",
                sum(counts.values()), model.final_loss)
    return 0


def _apply_row(model, row: tuple, counts: Counter, skips: list) -> str:
    """The corrected line of a ``(lineno, source, *hypotheses)`` row of raw
    lines."""
    from . import ensemble

    _, source, *hyps = row
    tokens = source.split()
    cands = ensemble.gather(tokens, [h.split() for h in hyps])
    return " ".join(ensemble.select_and_apply(tokens, cands, model)) + "\n"


def cmd_ensemble_apply(args) -> int:
    from . import ensemble

    model = ensemble.load_model(args.model)
    if len(model.weights) != len(ensemble.feature_names(len(args.hypotheses))):
        raise FormatError(f"{len(model.weights)} weights do not fit "
                          f"{len(args.hypotheses)} hypothesis files", path=args.model)
    if args.threshold is not None:
        model.threshold = args.threshold
    paths = [args.source, *args.hypotheses]
    with _out_stream(args.output) as out:
        _run_batches(out, functools.partial(_apply_row, model),
                     _lockstep([read_lines(p) for p in paths], paths))
    return 0


def cmd_score(args) -> int:
    paths = [args.hypothesis, args.gold]

    def pairs() -> Iterator[tuple[ed.EditScript, ed.EditScript]]:
        for idx, (hs, h), (gs, g) in _lockstep([ed.load_m2_file(p) for p in paths],
                                               paths):
            if hs != gs:
                raise FormatError(
                    f"block {idx}: hypothesis and gold source sentences differ",
                    path=args.hypothesis)
            yield h, g

    result = scoring.corpus_score(pairs())
    with _out_stream(args.output) as out:
        out.write(result.to_json() + "\n")
    print(result.summary(), file=sys.stderr)
    return 0


_SIGNS = {"finite": lambda v: True, "positive": lambda v: v > 0,
          "non-negative": lambda v: v >= 0}


def _number(kind: type, sign: str = "finite"):
    """An argparse ``type``: a finite ``kind`` of ``sign``, named for
    argparse's message, e.g. ``invalid positive int value: '0'``."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and _SIGNS[sign](value)):
            raise ValueError(text)
        return value

    parse.__name__ = f"{sign} {kind.__name__}"
    return parse


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
    p.add_argument("--seed", type=_number(int, "non-negative"), default=0)
    p.add_argument("--d", type=_number(int, "positive"), default=64)
    p.add_argument("--layers", type=_number(int, "positive"), default=3)
    p.set_defaults(func=cmd_gcn_check)

    p = sub.add_parser("ensemble-train", help="train the edit selector")
    p.add_argument("source")
    p.add_argument("hypotheses", nargs="+")
    p.add_argument("gold", help="gold edits in S/A block format")
    p.add_argument("-o", "--output")
    p.add_argument("--lr", type=_number(float, "positive"), default=0.5)
    p.add_argument("--epochs", type=_number(int, "non-negative"), default=500)
    p.add_argument("--l2", type=_number(float, "non-negative"), default=0.0)
    p.add_argument("--threshold", type=_number(float), default=0.5)
    p.set_defaults(func=cmd_ensemble_train)

    p = sub.add_parser("ensemble-apply", help="apply a trained edit selector")
    p.add_argument("source")
    p.add_argument("hypotheses", nargs="+")
    p.add_argument("model")
    p.add_argument("-o", "--output")
    p.add_argument("--threshold", type=_number(float), default=None,
                   help="override the model's stored threshold")
    p.set_defaults(func=cmd_ensemble_apply)

    p = sub.add_parser("score", help="edit-level P/R/F0.5 of hypothesis vs gold")
    p.add_argument("hypothesis", help="hypothesis edits in S/A block format")
    p.add_argument("gold")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    # A registered level name maps to its number; any other string to a
    # "Level ..." string.
    level = logging.getLevelName(os.environ.get("CSYN_LOG", "warning").upper())
    logging.basicConfig(stream=sys.stderr,
                        level=level if isinstance(level, int) else logging.WARNING,
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
    except MemoryError as exc:
        print(f"error: {args.command}: not enough memory ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
