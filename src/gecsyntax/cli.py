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
:class:`Batch` of text, counts, skipped lines and the first row error,
which ends the batch after the rows before it.  A reading error (a file
that ends early, a line that is not UTF-8, a malformed ``.m2`` line)
ends the stream of batches: :func:`_batches` gives it with the last
batch, the rows read before it.  :func:`_run_batches`, the one consumer,
takes the batches in row order: it writes each text, logs the skips,
raises the row error, then the reading error, and adds up the counts.
So the output before an error is exactly that of the rows before it.
``project``, ``subword``, ``strip`` and ``ensemble-apply`` all run
through :func:`_run_lines`, which reads their line-parallel files in
lockstep (``strip`` has one) and opens the output.  With at most two
batches per usable CPU in flight, once the input exceeds one batch the
batches run on every CPU in the process's affinity mask (``taskset``
limits this), with output, warnings and errors the same as on one CPU.

A count mismatch is reported as ``path:line N: file ends, but OTHER goes
on`` at the first line (for an ``.m2`` file, the first block) that only
some of the files have; it comes before any error in the contents of
line N.

Each numeric flag's range is part of its argparse ``type``: a value out
of range is rejected by the argument parser before any file is opened.
So is an output (``-o``, ``--summary``) that names an input or the other
output, by :func:`_out_stream`.  Exit codes: 0 on success, 2 on
input-format errors (reported with line numbers), on a flag the parser
rejects, on training that diverges, when memory runs out and when a
worker process ends abruptly, 1 when a numeric self-check fails, 141
when the reader of standard output closes it early.  Set ``CSYN_LOG``
to a level name (debug, info, warning, ...) for diagnostics on stderr;
any other value means warning.

Only ``gcn-check`` imports numpy; the other commands run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import logging
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


def _batches(rows: Iterable) -> Iterator[tuple[list, Exception | None]]:
    """``(rows, read_error)`` for consecutive ``BATCH_ROWS``-row lists of
    ``rows``.

    ``read_error`` is ``None`` except on the last batch, where it is the
    error that reading the next row raised (a file that ends early, a
    line that is not UTF-8, a malformed ``.m2`` line); that batch holds
    the rows read before it, and may hold none.
    """
    rows = iter(rows)
    while True:
        batch = []
        try:
            for row in itertools.islice(rows, BATCH_ROWS):
                batch.append(row)
        except Exception as exc:
            yield batch, exc
            return
        if not batch:
            return
        yield batch, None


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
    ``out``, its skips are logged, the error of one of its rows is
    raised, then the error that reading the next row raised (see
    :func:`_batches`), and its counts are added.  So every input error
    is raised here, after the output of the rows before it.  Once there
    is more than one batch, batches run in a ``fork`` pool of one worker
    per CPU in this process's affinity mask, with at most two batches per
    worker in flight; with one batch or one CPU, they run here.  A worker
    that ends abruptly (killed, or out of memory) raises
    :class:`ChildProcessError`.
    """
    counts: Counter = Counter()

    def take(batch: Batch, read_error: Exception | None) -> None:
        out.write(batch.text)
        for lineno, reason in batch.skips:
            logger.warning("line %d: skipped: %s", lineno, reason)
        for error in (batch.error, read_error):
            if error is not None:
                raise error
        counts.update(batch.counts)

    run = functools.partial(_run_rows, row_fn)
    # Platforms without affinity masks (not Linux) run on one CPU.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    batches = _batches(rows)
    head = list(itertools.islice(batches, 2))  # read to pick the path
    if cpus == 1 or len(head) < 2:
        for batch, read_error in itertools.chain(head, batches):
            take(run(batch), read_error)
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
        pending: deque = deque()  # (future, read_error) pairs in row order
        for batch, read_error in itertools.chain(head, batches):
            pending.append((pool.submit(run, batch), read_error))
            if len(pending) == 2 * cpus:
                future, error = pending.popleft()
                take(future.result(), error)
        for future, error in pending:
            take(future.result(), error)
    except BrokenProcessPool:
        raise ChildProcessError(
            "a worker process ended abruptly (killed, or out of memory)") from None
    finally:
        # Waits for the batches already running; the others are dropped.
        pool.shutdown(cancel_futures=True)
    return counts


def _out_stream(path: str | None, keep: Sequence[str | None], default=None):
    """A context manager for the file ``path``, written whole or not at all,
    or for ``default`` (standard output) without one.  A ``path`` naming
    (by ``os.path.realpath``) one of ``keep``, the command's inputs and
    other output, is a :class:`FormatError` raised by this call, so before
    the command opens any file."""
    if not path:
        return contextlib.nullcontext(default or sys.stdout)
    for other in keep:
        if other and os.path.realpath(other) == os.path.realpath(path):
            raise FormatError(f"output {path} names the same file as {other}")
    return _written_whole(path)


@contextlib.contextmanager
def _written_whole(path: str):
    """``path`` written under a temporary name in its own directory and
    renamed into place on success; on any error the temporary file is
    removed and an existing file is left as it was.  OS errors on the
    temporary file or the rename name ``path``."""
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


def _run_lines(row_fn: RowFn, paths: Sequence[str], output) -> Counter:
    """:func:`_run_batches` over the ``(lineno, line, ...)`` rows of the
    line-parallel files ``paths``, written to the stream of ``output``, a
    context manager from :func:`_out_stream`; gives the counts."""
    with output as out:
        return _run_batches(out, row_fn, _lockstep([read_lines(p) for p in paths], paths))


def _align_m2_blocks(pairs: Iterable[tuple], path: str) -> Iterator[tuple]:
    """``(source, script)`` per ``(lineno, source, target)`` pair; a replacement
    token holding ``|||`` splits its ``A`` line, so it is a :class:`FormatError`."""
    for lineno, src, tgt in pairs:
        script = ed.align(src, tgt)
        bad = [tok for e in script for tok in e.tgt_tokens if "|||" in tok]
        if bad:
            raise FormatError(f"target token {bad[0]!r} contains '|||', "
                              "which an .m2 'A' line cannot hold", lineno, path)
        yield src, script


def cmd_align(args) -> int:
    pairs = ((lineno, *parse_tsv_line(line, lineno, args.parallel))
             for lineno, line in enumerate(read_lines(args.parallel), start=1))
    with _out_stream(args.output, [args.parallel]) as out:
        if args.format == "m2":
            ed.write_m2(_align_m2_blocks(pairs, args.parallel), out)
        else:
            for _, src, tgt in pairs:
                out.write(ed.script_to_json(ed.align(src, tgt)) + "\n")
    return 0


def _project_row(paths: Sequence[str], placement: str, row: tuple,
                 counts: Counter, skips: list) -> str:
    """The projected text of a ``(lineno, pair line, tree line)`` row of raw
    lines, from the tree line's bracket tokens; no tree node is built.  A
    pair that cannot be projected (tree yield mismatch, pseudo nodes in the
    target tree, projection failure) is skipped and gives ``""``.  Counts
    ``pairs``, ``skipped`` and each inserted label."""
    lineno, pair, tree_line = row
    src, tgt = parse_tsv_line(pair, lineno, paths[0])
    tokens = T.tree_line_tokens(tree_line, lineno, paths[1])
    counts["pairs"] += 1
    try:
        result = projection.project(tokens, ed.align(src, tgt), src, placement=placement)
    except (ValueError, RuntimeError) as exc:
        skips.append((lineno, str(exc)))
        counts["skipped"] += 1
        return ""
    counts.update(label for label, _ in result.inserted)
    return result.source_tree + "\n"


def cmd_project(args) -> int:
    paths = [args.parallel, args.trees]
    output = _out_stream(args.output, [*paths, args.summary])
    # Opened first, so a summary that cannot be written fails before any work.
    with _out_stream(args.summary, [*paths, args.output], sys.stderr) as summary_out:
        counts = _run_lines(functools.partial(_project_row, paths, args.pseudo_placement),
                            paths, output)
        summary = {"pairs": counts["pairs"], "skipped": counts["skipped"],
                   "pseudo_counts": {label: counts[label] for label in T.PSEUDO_LABELS}}
        summary_out.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _strip_row(path: str, row: tuple, counts: Counter, skips: list) -> str:
    """The stripped tree of a ``(lineno, tree line)`` row."""
    lineno, line = row
    tokens = T.tree_line_tokens(line, lineno, path)
    try:
        stripped = projection.strip_pseudo(tokens)
    except ValueError as exc:
        raise FormatError(str(exc), lineno, path) from None
    return stripped + "\n"


def cmd_strip(args) -> int:
    _run_lines(functools.partial(_strip_row, args.trees), [args.trees],
               _out_stream(args.output, [args.trees]))
    return 0


def _subword_row(paths: Sequence[str], marker: str, style: str, row: tuple,
                 counts: Counter, skips: list) -> str:
    """The subword tree of a ``(lineno, tree line, segmentation line)`` row."""
    lineno, tree_line, seg_line = row
    tokens = T.tree_line_tokens(tree_line, lineno, paths[0])
    seg = subword.parse_segmentation_line(seg_line, lineno, paths[1])
    try:
        converted = subword.to_subword_tree(tokens, seg, marker=marker, style=style)
    except ValueError as exc:
        raise FormatError(str(exc), lineno, paths[1]) from None
    return converted + "\n"


def cmd_subword(args) -> int:
    paths = [args.trees, args.segmentation]
    _run_lines(functools.partial(_subword_row, paths, args.marker, args.marker_style),
               paths, _out_stream(args.output, paths))
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

    _, source, *hyps, (gold_lineno, gold_lines) = row
    tokens = source.split()
    gold_src, gold_script = ed.parse_m2_block(gold_lineno, gold_lines, gold_path)
    if gold_src != tokens:
        raise FormatError("gold source does not match source file",
                          gold_lineno, gold_path)
    cands = ensemble.gather(tokens, [h.split() for h in hyps])
    counts.update(ensemble.row_counts(
        zip(cands, ensemble.label_candidates(cands, gold_script))))
    return ""


def cmd_ensemble_train(args) -> int:
    from . import ensemble

    paths = [args.source, *args.hypotheses, args.gold]
    output = _out_stream(args.output, paths)
    streams = [*map(read_lines, paths[:-1]), ed.m2_blocks(read_lines(args.gold), args.gold)]
    # The rows give no text, so nothing is written to the sink.
    counts = _run_batches(io.StringIO(), functools.partial(_train_row, args.gold),
                          _lockstep(streams, paths))
    if not counts:
        raise FormatError("no edits proposed by any system; nothing to train on")
    try:
        model = ensemble.train(counts, lr=args.lr, epochs=args.epochs, l2=args.l2)
    except ValueError as exc:
        raise FormatError(f"--lr {args.lr} --l2 {args.l2}: {exc}") from None
    model.threshold = args.threshold
    payload = json.dumps(ensemble.model_to_dict(model), sort_keys=True)
    with output as out:
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

    paths = [args.source, *args.hypotheses]
    output = _out_stream(args.output, [*paths, args.model])
    model = ensemble.load_model(args.model)
    if len(model.weights) != len(ensemble.feature_names(len(args.hypotheses))):
        raise FormatError(f"{len(model.weights)} weights do not fit "
                          f"{len(args.hypotheses)} hypothesis files", path=args.model)
    if args.threshold is not None:
        model.threshold = args.threshold
    _run_lines(functools.partial(_apply_row, model), paths, output)
    return 0


def cmd_score(args) -> int:
    paths = [args.hypothesis, args.gold]
    output = _out_stream(args.output, paths)

    def pairs() -> Iterator[tuple[ed.EditScript, ed.EditScript]]:
        for _, (h_line, hs, h), (g_line, gs, g) in _lockstep(
                [ed.load_m2_file(p) for p in paths], paths):
            if hs != gs:
                raise FormatError("hypothesis and gold source sentences differ "
                                  f"(gold line {g_line})", h_line, args.hypothesis)
            yield h, g

    result = scoring.corpus_score(pairs())
    with output as out:
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
        # False for nan, +-inf and an int beyond float range alike.
        if not (abs(value) <= sys.float_info.max and _SIGNS[sign](value)):
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
    # Standard output is UTF-8 like every output file, whatever the locale.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed standard output: end quietly with the status a
        # producer killed by SIGPIPE gives, and let the interpreter's last
        # flush of the output still buffered go nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
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
