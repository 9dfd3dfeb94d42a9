import argparse
import functools
import gc
import io
import json
import logging
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from gecsyntax import cli
from gecsyntax import edits as E
from gecsyntax import tree as T
from gecsyntax.cli import build_parser, main
from gecsyntax.lines import read_lines
from gecsyntax.projection import project, strip_pseudo

from tests.helpers import (
    SRC_VOCAB, build_ensemble_corpus, child_env, has_vmhwm, random_script,
    random_tokens, random_tree,
)


@pytest.fixture
def three_pair_fixture(tmp_path):
    """One SUB, one RED, one MISS pair with matching target trees."""
    pairs = [
        ("a dog sat", "a cat sat"),
        ("a the cat", "a cat"),
        ("cat sat", "the cat sat"),
    ]
    trees = [
        "(S (DT a) (NN cat) (VB sat))",
        "(S (DT a) (NN cat))",
        "(S (DT the) (NN cat) (VB sat))",
    ]
    parallel = tmp_path / "pairs.tsv"
    parallel.write_text("".join(f"{s}\t{t}\n" for s, t in pairs), encoding="utf-8")
    tree_file = tmp_path / "targets.trees"
    tree_file.write_text("".join(line + "\n" for line in trees), encoding="utf-8")
    return parallel, tree_file


def test_align_command(tmp_path, three_pair_fixture, capsys):
    parallel, _ = three_pair_fixture
    out = tmp_path / "scripts.jsonl"
    assert main(["align", str(parallel), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    cats = [json.loads(line)["edits"][0]["cat"] for line in lines]
    assert cats == ["SUB", "RED", "MISS"]


def test_align_m2_output_feeds_score(tmp_path, capsys):
    parallel = tmp_path / "p.tsv"
    parallel.write_text("a dog sat\ta cat sat\nthe the cat\tthe cat\n",
                        encoding="utf-8")
    m2 = tmp_path / "edits.m2"
    assert main(["align", str(parallel), "--format", "m2",
                 "-o", str(m2)]) == 0
    parsed = E.load_m2_file(str(m2))
    assert [(lineno, src) for lineno, src, _ in parsed] == [
        (1, ["a", "dog", "sat"]), (4, ["the", "the", "cat"])]
    assert main(["score", str(m2), str(m2)]) == 0
    assert json.loads(capsys.readouterr().out)["F05"] == 1.0


def test_align_m2_refuses_a_replacement_holding_the_separator(tmp_path, capsys):
    # An 'A' line splits on '|||', so a replacement token holding it would
    # write a block that the reader rejects.  A kept token holding it goes
    # only on the 'S' line, which reads back.
    parallel = tmp_path / "pairs.tsv"
    parallel.write_text("p|||q c\tp|||q d\na b c\ta x|||y c\n", encoding="utf-8")
    m2 = tmp_path / "h.m2"
    assert main(["align", str(parallel), "--format", "m2", "-o", str(m2)]) == 2
    assert f"{parallel}:line 2: target token 'x|||y' contains '|||'" \
        in capsys.readouterr().err
    assert not m2.exists()
    assert main(["align", str(parallel), "-o", str(tmp_path / "h.jsonl")]) == 0
    parallel.write_text("p|||q c\tp|||q d\n", encoding="utf-8")
    assert main(["align", str(parallel), "--format", "m2", "-o", str(m2)]) == 0
    assert main(["score", str(m2), str(m2)]) == 0


def test_project_command_identity(tmp_path, capsys):
    parallel = tmp_path / "p.tsv"
    parallel.write_text("a cat\ta cat\n", encoding="utf-8")
    trees = tmp_path / "t.trees"
    trees.write_text("(S (DT a) (NN cat))\n", encoding="utf-8")
    assert main(["project", str(parallel), str(trees)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "(S (DT a) (NN cat))\n"
    summary = json.loads(captured.err.strip().splitlines()[-1])
    assert summary == {"pairs": 1, "skipped": 0,
                       "pseudo_counts": {"SUB": 0, "RED": 0, "MISS": 0}}


def test_end_to_end_matches_module_calls(tmp_path, three_pair_fixture):
    parallel, tree_file = three_pair_fixture
    projected = tmp_path / "projected.trees"
    summary_file = tmp_path / "summary.json"
    assert main(["project", str(parallel), str(tree_file),
                 "-o", str(projected), "--summary", str(summary_file)]) == 0

    pairs = [(s.split(), t.split()) for s, t in
             (line.split("\t") for line in
              parallel.read_text().splitlines())]
    trees = [T.bracket_tokens(line) for line in tree_file.read_text().splitlines()]
    results = [project(tree, E.align(src, tgt), src)
               for (src, tgt), tree in zip(pairs, trees)]
    expected = [r.source_tree for r in results]
    assert projected.read_text() == "".join(t + "\n" for t in expected)
    labels = [label for r in results for label, _ in r.inserted]
    assert json.loads(summary_file.read_text()) == {
        "pairs": 3, "skipped": 0,
        "pseudo_counts": {label: labels.count(label) for label in ("SUB", "RED", "MISS")}}
    assert json.loads(summary_file.read_text())["pseudo_counts"] == {
        "SUB": 1, "RED": 1, "MISS": 1}

    stripped = tmp_path / "stripped.trees"
    assert main(["strip", str(projected), "-o", str(stripped)]) == 0
    assert stripped.read_text() == "".join(
        strip_pseudo(T.bracket_tokens(t)) + "\n" for t in expected)


def test_project_skips_bad_lines_but_counts_them(tmp_path, capsys):
    parallel = tmp_path / "p.tsv"
    parallel.write_text("a cat\ta cat\nb dog\tb dog\n", encoding="utf-8")
    trees = tmp_path / "t.trees"
    trees.write_text("(S (DT a) (NN cat))\n(S (X mismatch))\n", encoding="utf-8")
    assert main(["project", str(parallel), str(trees)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert json.loads(captured.err.strip().splitlines()[-1])["skipped"] == 1


def test_project_line_count_mismatch_is_exit_2(tmp_path, capsys):
    parallel = tmp_path / "p.tsv"
    parallel.write_text("a cat\ta cat\n", encoding="utf-8")
    trees = tmp_path / "t.trees"
    trees.write_text("(S (DT a) (NN cat))\n(S (X b))\n", encoding="utf-8")
    assert main(["project", str(parallel), str(trees)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "line 2" in err


def test_malformed_tsv_is_exit_2(tmp_path, capsys):
    parallel = tmp_path / "p.tsv"
    parallel.write_text("only one field\n", encoding="utf-8")
    trees = tmp_path / "t.trees"
    trees.write_text("(S (X a))\n", encoding="utf-8")
    assert main(["project", str(parallel), str(trees)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_blank_tree_line_is_exit_2(tmp_path, capsys):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (X a))\n\n(S (X b))\n", encoding="utf-8")
    assert main(["strip", str(trees)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_strip_all_pseudo_tree_is_exit_2(tmp_path, capsys):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (X a))\n(RED x)\n", encoding="utf-8")
    assert main(["strip", str(trees)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["strip", str(tmp_path / "absent.trees")]) == 2
    assert "missing input file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["strip", "project"])
def test_non_utf8_input_is_exit_2_with_line(tmp_path, capsys, command):
    trees = tmp_path / "t.trees"
    trees.write_bytes(b"(S (X a))\n(S (X b))\n(S (X \xff))\n(S (X d))\n")
    parallel = tmp_path / "p.tsv"
    parallel.write_text("a\ta\nb\tb\nc\tc\nd\td\n", encoding="utf-8")
    argv = (["strip", str(trees)] if command == "strip"
            else ["project", str(parallel), str(trees)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{trees}:line 3: not valid UTF-8" in err
    assert "Traceback" not in err


def test_input_directory_is_exit_2(tmp_path, capsys):
    assert main(["strip", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {tmp_path}: Is a directory" in err


def test_unwritable_output_names_the_output(tmp_path, capsys):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (X a))\n", encoding="utf-8")
    out = tmp_path / "absent" / "out.trees"
    assert main(["strip", str(trees), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}: No such file or directory" in err
    assert ".tmp" not in err and "input" not in err


def _one_pair_project_inputs(tmp_path):
    parallel = tmp_path / "p.tsv"
    parallel.write_text("a cat\ta cat\n", encoding="utf-8")
    trees = tmp_path / "t.trees"
    trees.write_text("(S (DT a) (NN cat))\n", encoding="utf-8")
    return [str(parallel), str(trees)]


def test_unwritable_summary_leaves_no_projected_trees(tmp_path, capsys):
    inputs = _one_pair_project_inputs(tmp_path)
    out, summary = tmp_path / "out.trees", tmp_path / "absent" / "s.json"
    assert main(["project", *inputs, "-o", str(out), "--summary", str(summary)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {summary}: No such file or directory" in err
    assert sorted(os.listdir(tmp_path)) == ["p.tsv", "t.trees"]


def test_summary_naming_the_output_is_refused(tmp_path, capsys):
    inputs = _one_pair_project_inputs(tmp_path)
    out = tmp_path / "out.trees"
    out.write_text("kept\n", encoding="utf-8")
    same = os.path.join(str(tmp_path), ".", "out.trees")
    assert main(["project", *inputs, "-o", str(out), "--summary", same]) == 2
    err = capsys.readouterr().err
    assert f"error: output {out} names the same file as {same}" in err
    assert out.read_text(encoding="utf-8") == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["out.trees", "p.tsv", "t.trees"]


# (argv, the output, the input or output it names)
OUTPUT_CLASHES = [
    (["project", "p.tsv", "t.trees", "-o", "p.tsv"], "p.tsv", "p.tsv"),
    (["project", "p.tsv", "t.trees", "--summary", "./p.tsv"], "./p.tsv", "p.tsv"),
    (["project", "p.tsv", "t.trees", "-o", "o.trees", "--summary", "t.trees"],
     "t.trees", "t.trees"),
    (["strip", "t.trees", "-o", "t.trees"], "t.trees", "t.trees"),
    (["subword", "t.trees", "seg.tsv", "-o", "seg.tsv"], "seg.tsv", "seg.tsv"),
    (["align", "p.tsv", "-o", "sub/../p.tsv"], "sub/../p.tsv", "p.tsv"),
    (["score", "h.m2", "g.m2", "-o", "g.m2"], "g.m2", "g.m2"),
    (["ensemble-train", "src.txt", "h.txt", "g.m2", "-o", "h.txt"], "h.txt", "h.txt"),
    (["ensemble-apply", "src.txt", "h.txt", "model.json", "-o", "model.json"],
     "model.json", "model.json"),
]


@pytest.mark.parametrize("argv,output,named", OUTPUT_CLASHES,
                         ids=[" ".join(argv) for argv, _, _ in OUTPUT_CLASHES])
def test_output_naming_an_input_is_refused(tmp_path, capsys, monkeypatch, argv,
                                           output, named):
    # Refused before any file is opened: every file keeps its bytes, and
    # no temporary or output file appears.
    files = {"p.tsv": "a cat\ta cat\n", "t.trees": "(S (DT a) (NN cat))\n",
             "seg.tsv": "a\tcat\n", "h.m2": "S a cat\n", "g.m2": "S a cat\n",
             "src.txt": "a cat\n", "h.txt": "a cat\n", "model.json": "{}\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: output {output} names the same file as {named}\n"
    assert sorted(os.listdir(tmp_path)) == sorted([*files, "sub"])
    for name, text in files.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text


def test_subword_command(tmp_path, capsys):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (VBG playing) (NN cat))\n", encoding="utf-8")
    seg = tmp_path / "seg.tsv"
    seg.write_text("play @@ing\tcat\n", encoding="utf-8")
    assert main(["subword", str(trees), str(seg)]) == 0
    assert capsys.readouterr().out == "(S (VBG play @@ing) (NN cat))\n"


def test_subword_empty_suffix_marker(tmp_path, capsys):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (VBG playing) (NN cat))\n", encoding="utf-8")
    seg = tmp_path / "seg.txt"
    seg.write_text("play ing\tcat\n", encoding="utf-8")
    assert main(["subword", str(trees), str(seg), "--marker", "",
                 "--marker-style", "suffix"]) == 0
    assert capsys.readouterr().out == "(S (VBG play ing) (NN cat))\n"


@pytest.mark.parametrize("marker,pieces", [("(", "play (ing"), ("-LRB-", "play -LRB-ing")])
def test_subword_bracket_marker(tmp_path, capsys, marker, pieces):
    # A marker that starts with "-" must be given as --marker=VALUE.
    trees = tmp_path / "t.trees"
    trees.write_text("(S (VBG playing) (NN cat))\n", encoding="utf-8")
    seg = tmp_path / "seg.tsv"
    seg.write_text(f"{pieces}\tcat\n", encoding="utf-8")
    assert main(["subword", str(trees), str(seg), f"--marker={marker}"]) == 0
    assert capsys.readouterr().out == "(S (VBG play -LRB-ing) (NN cat))\n"


def test_malformed_tree_names_tree_file_and_line(tmp_path, capsys):
    parallel = tmp_path / "pairs.tsv"
    parallel.write_text("a cat\ta cat\n" * 3, encoding="utf-8")
    trees = tmp_path / "bad.trees"
    trees.write_text("(S (DT a) (NN cat))\n" * 2 + "(S (DT a) (NN cat)\n",
                     encoding="utf-8")
    assert main(["project", str(parallel), str(trees)]) == 2
    err = capsys.readouterr().err
    assert f"error: {trees}:line 3: " in err


def test_subword_bad_segmentation_is_exit_2(tmp_path, capsys):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (VBG playing))\n", encoding="utf-8")
    seg = tmp_path / "seg.tsv"
    seg.write_text("play @@inc\n", encoding="utf-8")
    assert main(["subword", str(trees), str(seg)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_gcn_check_command(tmp_path, capsys):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (NP (DT a) (NN cat)) (VP (VB sat)))\n"
                     "(S (X b))\n", encoding="utf-8")
    assert main(["gcn-check", str(trees), "--seed", "3", "--d", "8",
                 "--layers", "2"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("tree") == 2


def test_gcn_check_has_no_self_loops_flag(tmp_path):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (X a) (Y b))\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["gcn-check", str(trees), "--self-loops"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [
    ("--d", "0"), ("--d", "-3"), ("--layers", "0"), ("--layers", "-1"),
    ("--seed", "-5"),
])
def test_gcn_check_flag_out_of_range_is_exit_2(tmp_path, capsys, flag, value):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (X a) (Y b))\n", encoding="utf-8")
    # The parser checks the flag: a missing tree file is not reached.
    for path in (trees, tmp_path / "absent.trees"):
        with pytest.raises(SystemExit) as exc:
            main(["gcn-check", str(path), flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: invalid " in captured.err
        assert captured.out == "" and "Traceback" not in captured.err


def test_gcn_check_out_of_memory_is_exit_2(tmp_path, capsys):
    # A 10^6 x 10^6 weight matrix is 7.28 TiB: numpy refuses it at once.
    trees = tmp_path / "t.trees"
    trees.write_text("(S (NP (DT a) (NN cat)) (VP (VB sat)))\n", encoding="utf-8")
    assert main(["gcn-check", str(trees), "--d", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: gcn-check: not enough memory (")
    assert "Traceback" not in captured.err


def test_gcn_check_on_deeply_nested_tree(tmp_path, capsys):
    depth = 1_500
    trees = tmp_path / "deep.trees"
    trees.write_text("(S " + "(X " * depth + "w" + ")" * (depth + 1) + "\n",
                     encoding="utf-8")
    assert main(["gcn-check", str(trees), "--d", "4", "--layers", "1"]) == 0
    captured = capsys.readouterr()
    assert "all checks passed" in captured.out
    assert "Traceback" not in captured.err


def test_ensemble_train_and_apply(tmp_path, capsys):
    src_lines = ["a cat sat on mat", "the dog ran"]
    gold_lines = ["a dog sat on mat", "the dog ran fast"]
    hyp1 = list(gold_lines)
    hyp2 = ["a dog sat on mat", "the dog ran"]
    hyp3 = ["a cat sat mat", "a dog ran fast"]

    paths = {}
    for name, lines in [("src", src_lines), ("h1", hyp1), ("h2", hyp2),
                        ("h3", hyp3)]:
        p = tmp_path / f"{name}.txt"
        p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        paths[name] = str(p)
    gold_m2 = tmp_path / "gold.m2"
    with open(gold_m2, "w", encoding="utf-8") as fh:
        E.write_m2(
            [(s.split(), E.align(s.split(), g.split()))
             for s, g in zip(src_lines, gold_lines)], fh)

    model_path = tmp_path / "model.json"
    assert main(["ensemble-train", paths["src"], paths["h1"], paths["h2"],
                 paths["h3"], str(gold_m2), "-o", str(model_path),
                 "--epochs", "300"]) == 0
    model = json.loads(model_path.read_text())
    assert len(model["weights"]) == 3 + 4
    assert model["feature_names"][0] == "system_0"

    out_path = tmp_path / "corrected.txt"
    assert main(["ensemble-apply", paths["src"], paths["h1"], paths["h2"],
                 paths["h3"], str(model_path), "-o", str(out_path)]) == 0
    corrected = out_path.read_text().splitlines()
    assert corrected == gold_lines


@pytest.mark.parametrize("model_text,message", [
    # Two systems need 6 weights.
    ('{"weights": [0, 0, 0, 0, 0], "bias": 0}', "5 weights do not fit 2 hypothesis files"),
    ('{"weights": [0, 0, 0, 0, 0, 0], "bi',
     "bad model file: Unterminated string starting at: line 1 column 33 (char 32)"),
    ('[0, 0, 0, 0, 0, 0]', "bad model file: a model needs a 'weights' list and a 'bias'"),
    ('{"weights": {"w": 0}, "bias": 0}',
     "bad model file: a model needs a 'weights' list and a 'bias'"),
    ('{"weights": [0, 0, 0, 0, 0, 0]}',
     "bad model file: a model needs a 'weights' list and a 'bias'"),
    ('{"weights": [0, 0, 0, 0, 0, "0"], "bias": 0}',
     "bad model file: model parameters must be finite numbers"),
    ('{"weights": [0, 0, 0, 0, 0, 0], "bias": true}',
     "bad model file: model parameters must be finite numbers"),
    ('{"weights": [0, 0, 0, 0, 0, 0], "bias": 0, "threshold": NaN}',
     "bad model file: model parameters must be finite numbers"),
], ids=["weight-count", "truncated-json", "not-an-object", "weights-not-a-list", "no-bias",
        "string-weight", "bool-bias", "nan-threshold"])
def test_ensemble_apply_bad_model_is_exit_2(tmp_path, capsys, model_text, message):
    paths = []
    for name in ("src", "h1", "h2"):
        paths.append(tmp_path / f"{name}.txt")
        paths[-1].write_text("a cat\n", encoding="utf-8")
    model = tmp_path / "model.json"
    model.write_text(model_text, encoding="utf-8")
    assert main(["ensemble-apply", *map(str, paths), str(model)]) == 2
    # A file without a line number is named as "path: message".
    assert capsys.readouterr().err == f"error: {model}: {message}\n"


def test_ensemble_train_source_mismatch_is_exit_2(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("a cat\n", encoding="utf-8")
    (tmp_path / "h1.txt").write_text("a dog\n", encoding="utf-8")
    gold = tmp_path / "gold.m2"
    gold.write_text("S totally different\nA 0 1|||SUB|||x\n", encoding="utf-8")
    assert main(["ensemble-train", str(tmp_path / "src.txt"),
                 str(tmp_path / "h1.txt"), str(gold)]) == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("flags,by_parser", [
    (["--lr", "inf"], True),
    (["--lr", "nan"], True),
    (["--lr=-inf"], True),
    (["--l2=-1"], True),
    (["--epochs=-1"], True),
    # Diverges: each step overshoots the L2 pull.  The parser accepts
    # both values; training reports the failure.
    (["--lr", "1e12", "--l2", "1"], False),
    (["--threshold", "nan"], True),
    (["--threshold", "inf"], True),
], ids=["lr-inf", "lr-nan", "lr-minus-inf", "l2-negative", "epochs-negative",
        "diverging", "threshold-nan", "threshold-inf"])
def test_ensemble_train_bad_settings_is_exit_2(tmp_path, capsys, flags, by_parser):
    model = tmp_path / "model.json"
    argv = ["ensemble-train", *_two_system_files(tmp_path), "-o", str(model), *flags]
    if by_parser:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 2
    captured = capsys.readouterr()
    flag = flags[0].split("=")[0]
    assert re.search(rf"error: (argument )?{flag}[: ]", captured.err)
    assert captured.out == "" and "Traceback" not in captured.err
    assert not model.exists()


def _two_system_files(tmp_path):
    """Source, two hypothesis files and gold edits for two sentences."""
    (tmp_path / "src.txt").write_text("a cat sat\nthe dog ran\n", encoding="utf-8")
    (tmp_path / "h1.txt").write_text("a dog sat\nthe dog ran fast\n", encoding="utf-8")
    (tmp_path / "h2.txt").write_text("a dog sat\nthe dog ran\n", encoding="utf-8")
    gold = tmp_path / "gold.m2"
    gold.write_text("S a cat sat\nA 1 2|||SUB|||dog\n\nS the dog ran\n"
                    "A 3 3|||MISS|||fast\n", encoding="utf-8")
    return [str(tmp_path / f) for f in ("src.txt", "h1.txt", "h2.txt", "gold.m2")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_ensemble_apply_non_finite_threshold_is_exit_2(tmp_path, capsys, value):
    src, h1, h2, _ = _two_system_files(tmp_path)
    model = tmp_path / "model.json"
    model.write_text('{"weights": [1, 1, 0, 0, 0, 0], "bias": -1.5, "threshold": 0.5}',
                     encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["ensemble-apply", src, h1, h2, str(model), f"--threshold={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --threshold: invalid " in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def _numeric_flags():
    """``(command, positional count, flag)`` for every option whose type
    parses '1' as a number."""
    commands = next(a.choices for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.items():
        positionals = sum(not a.option_strings for a in sub._actions)
        for action in sub._actions:
            if (action.option_strings and action.type is not None
                    and isinstance(action.type("1"), (int, float))):
                yield name, positionals, action.option_strings[-1]


NUMERIC_FLAGS = list(_numeric_flags())


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,positionals,flag", NUMERIC_FLAGS,
                         ids=[f"{name}{flag}" for name, _, flag in NUMERIC_FLAGS])
def test_every_numeric_flag_rejects_non_finite_values(tmp_path, capsys, command,
                                                      positionals, flag, value):
    # Every input file is missing: the parser rejects the flag first.
    absent = [str(tmp_path / f"absent{i}") for i in range(positionals)]
    with pytest.raises(SystemExit) as exc:
        main([command, *absent, f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--seed", "--d", "--layers", "--epochs"])
def test_integer_flag_beyond_float_range_is_refused(capsys, flag):
    # Only the parser runs, so no huge stack or training loop is started.
    command = "ensemble-train" if flag == "--epochs" else "gcn-check"
    inputs = ["src", "hyp", "gold"] if flag == "--epochs" else ["trees"]
    huge = "9" * 400
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *inputs, f"{flag}={huge}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid " in err and f" int value: '{huge}'" in err
    assert "Traceback" not in err


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _write_m2(path, sources, targets):
    with open(path, "w", encoding="utf-8") as fh:
        E.write_m2([(s.split(), E.align(s.split(), t.split()))
                    for s, t in zip(sources, targets)], fh)
    return str(path)


_INPUTS = {"ensemble-train": ["src.txt", "h1.txt", "h2.txt", "gold.m2"],
           "ensemble-apply": ["src.txt", "h1.txt", "h2.txt", "model.json"],
           "score": ["hyp.m2", "gold.m2"]}


@pytest.mark.parametrize("command,h2_lines,gold_blocks,short,other,line", [
    ("ensemble-train", 2, 3, "h2.txt", "src.txt", 3),
    ("ensemble-train", 3, 2, "gold.m2", "src.txt", 3),
    ("ensemble-apply", 4, 3, "src.txt", "h2.txt", 4),
    ("score", 3, 3, "hyp.m2", "gold.m2", 3),   # hyp.m2 has 2 blocks
], ids=["train-short-hypothesis", "train-short-gold", "apply-long-hypothesis",
        "score-short-hypothesis"])
def test_ensemble_count_mismatch_names_file_and_line(
        tmp_path, capsys, command, h2_lines, gold_blocks, short, other, line):
    src = ["a cat sat", "the dog ran", "a bird flew"]
    tgt = ["a dog sat", "the dog ran fast", "a bird flew"]
    _write_lines(tmp_path / "src.txt", src)
    _write_lines(tmp_path / "h1.txt", tgt)
    _write_lines(tmp_path / "h2.txt", (tgt + ["one more"])[:h2_lines])
    _write_m2(tmp_path / "gold.m2", src[:gold_blocks], tgt)
    _write_m2(tmp_path / "hyp.m2", src[:2], tgt)
    (tmp_path / "model.json").write_text('{"weights": [0, 0, 0, 0, 0, 0], "bias": 0}',
                                         encoding="utf-8")
    inputs = sorted(tmp_path.iterdir())
    assert main([command, *(str(tmp_path / name) for name in _INPUTS[command]),
                 "-o", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert (f"error: {tmp_path / short}:line {line}: "
            f"file ends, but {tmp_path / other} goes on") in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == inputs


def test_ensemble_train_bad_gold_keeps_its_own_error(tmp_path, capsys):
    source = _write_lines(tmp_path / "src.txt", ["a cat", "the dog"])
    hyp = _write_lines(tmp_path / "h1.txt", ["a dog", "the cat"])
    gold = _write_lines(tmp_path / "gold.m2", ["S a cat", "A 1 2|||SUB|||dog", "",
                                               "S the dog", "A 0 1|||WHAT|||x"])
    assert main(["ensemble-train", source, hyp, gold]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gold}:line 5: unknown category") and "--lr" not in err


def test_ensemble_train_without_edits_is_exit_2(tmp_path, capsys, caplog):
    source = _write_lines(tmp_path / "src.txt", ["a cat", "the dog"])
    hyp = _write_lines(tmp_path / "h1.txt", ["a cat", "the dog"])
    gold = _write_m2(tmp_path / "gold.m2", ["a cat", "the dog"], ["a dog", "the dog"])
    model = tmp_path / "model.json"
    assert main(["ensemble-train", source, hyp, gold, "-o", str(model)]) == 2
    assert "no edits proposed by any system" in capsys.readouterr().err
    assert not model.exists()
    hyp = _write_lines(tmp_path / "h1.txt", ["a dog", "the cat"])
    with caplog.at_level(logging.INFO, logger="gecsyntax"):
        assert main(["ensemble-train", source, hyp, gold, "-o", str(model)]) == 0
    assert any(rec.getMessage().startswith("trained on 2 candidates, final loss ")
               for rec in caplog.records)


def _write_ensemble_corpus(root, n_sentences, seed):
    """Source, hypothesis and gold files of a generated corpus of six systems."""
    sources, golds, hyps = build_ensemble_corpus(seed=seed, n_sentences=n_sentences)
    src = _write_lines(root / "src.txt", map(" ".join, sources))
    hyp_files = [_write_lines(root / f"h{i}.txt", map(" ".join, h))
                 for i, h in enumerate(hyps)]
    gold = _write_m2(root / "gold.m2", map(" ".join, sources), map(" ".join, golds))
    return src, hyp_files, gold


def _write_treebank_corpus(root, n_pairs, seed, skipped=()):
    """Pairs, target trees and a segmentation of a generated criterion-9
    corpus.  The 0-based rows in ``skipped`` get a target tree over one
    more word, which ``project`` skips; the segmentation, of the source
    words, covers the other rows: the trees ``project`` writes."""
    rng = random.Random(seed)
    pairs, trees, seg = [], [], []
    for row in range(n_pairs):
        src = random_tokens(rng, rng.randint(10, 20), SRC_VOCAB)
        script = random_script(src, rng, SRC_VOCAB,
                               sub_prob=0.08, red_prob=0.05, miss_prob=0.04)
        tgt = E.apply_edits(src, script)
        pairs.append(" ".join(src) + "\t" + " ".join(tgt))
        if row in skipped:
            tgt = [*tgt, "w0"]
        trees.append(T.serialize(random_tree(tgt, rng, unary_prob=0.05)))
        if row not in skipped:
            seg.append("\t".join(w[:1] + (" @@" + w[1:] if w[1:] else "") for w in src))
    return (_write_lines(root / "pairs.tsv", pairs),
            _write_lines(root / "targets.trees", trees),
            _write_lines(root / "seg.tsv", seg))


def test_tree_commands_build_no_nodes(tmp_path, monkeypatch):
    # project, subword and strip work on bracket tokens alone: with the
    # parser and both node types made to raise, every output is the same.
    pairs, trees, seg = _write_treebank_corpus(tmp_path, 300, seed=17, skipped=(4, 260))

    def outputs(name):
        out = tmp_path / name
        out.mkdir()
        source = str(out / "source.trees")
        assert main(["project", pairs, trees, "-o", source,
                     "--summary", str(out / "summary.json")]) == 0
        assert main(["subword", source, seg, "-o", str(out / "sub.trees")]) == 0
        assert main(["strip", source, "-o", str(out / "stripped.trees")]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    plain = outputs("plain")

    def no_nodes(*args, **kwargs):
        raise AssertionError("a tree command built a node")

    for name in ("parse_bracketed", "NonTerminal", "Terminal"):
        monkeypatch.setattr(T, name, no_nodes)
    assert outputs("patched") == plain
    assert len(plain) == 4 and b'"skipped": 2' in plain["summary.json"]


# A child process runs one command and prints its own peak resident size,
# then the largest peak among the processes it reaped (its pool workers),
# both in KB.
_PEAK_RSS_CHILD = """
import resource
import sys
from gecsyntax.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")),
          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def _peak_growth_mb(runs):
    """Run each ``(command, argv)`` of ``runs(n)`` in a child process for
    1,000 and then 4,000 items; the growth of each command's own peak and
    of its workers' peak, in MB."""
    peak_kb = {}
    for n in (1_000, 4_000):
        for command, argv in runs(n):
            proc = subprocess.run(
                [sys.executable, "-c", _PEAK_RSS_CHILD, command, *argv], env=child_env(),
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            own, workers = map(int, proc.stdout.split()[-2:])
            peak_kb[command, "own", n] = own
            peak_kb[command, "workers", n] = workers
    return {(command, whose): (peak_kb[command, whose, 4_000] - kb) / 1024
            for (command, whose, n), kb in peak_kb.items() if n == 1_000}, peak_kb


@pytest.mark.skipif(not has_vmhwm(), reason="needs VmHWM in /proc/self/status")
def test_ensemble_commands_memory_is_flat_in_corpus_size(tmp_path):
    def runs(n):
        root = tmp_path / str(n)
        root.mkdir()
        src, hyp_files, gold = _write_ensemble_corpus(root, n, seed=11)
        sources, _, hyps = build_ensemble_corpus(seed=11, n_sentences=n)
        hyp_m2 = _write_m2(root / "hyp.m2", map(" ".join, sources),
                           map(" ".join, hyps[-1]))
        model = str(root / "model.json")
        return (("ensemble-train", [src, *hyp_files, gold, "-o", model]),
                ("ensemble-apply", [src, *hyp_files, model, "-o", str(root / "out.txt")]),
                ("score", [hyp_m2, gold, "-o", str(root / "score.json")]))

    growth_mb, peak_kb = _peak_growth_mb(runs)
    assert max(growth_mb.values()) < 5, (growth_mb, peak_kb)


@pytest.mark.skipif(not has_vmhwm(), reason="needs VmHWM in /proc/self/status")
def test_tree_commands_memory_is_flat_in_corpus_size(tmp_path):
    def runs(n):
        root = tmp_path / str(n)
        root.mkdir()
        pairs, trees, seg = _write_treebank_corpus(root, n, seed=11)
        source = str(root / "source.trees")
        return (("project", [pairs, trees, "-o", source,
                             "--summary", str(root / "summary.json")]),
                ("subword", [source, seg, "-o", str(root / "sub.trees")]),
                ("strip", [source, "-o", str(root / "stripped.trees")]))

    growth_mb, peak_kb = _peak_growth_mb(runs)
    assert max(growth_mb.values()) < 5, (growth_mb, peak_kb)


def _run_with_cpus(monkeypatch, capsys, cpus, argv):
    """``main(argv)`` as if ``cpus`` CPUs were usable: the exit code, stderr
    and the sizes of the batches sent to a worker pool.  No worker outlives
    the command."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    sent = []
    submit = ProcessPoolExecutor.submit

    def counting(pool, fn, batch):
        sent.append(len(batch))
        return submit(pool, fn, batch)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    code = main(argv)
    assert multiprocessing.active_children() == []
    return code, capsys.readouterr().err, sent


def test_ensemble_pool_writes_what_one_cpu_writes(tmp_path, monkeypatch, capsys):
    src, hyps, gold = _write_ensemble_corpus(tmp_path, 700, seed=17)
    written = {}
    for cpus, batches in ((1, []), (2, [256, 256, 188])):
        model, out = tmp_path / f"model{cpus}.json", tmp_path / f"out{cpus}.txt"
        for argv in (["ensemble-train", src, *hyps, gold, "-o", str(model)],
                     ["ensemble-apply", src, *hyps, str(model), "-o", str(out)]):
            code, err, sent = _run_with_cpus(monkeypatch, capsys, cpus, argv)
            assert (code, sent) == (0, batches), err
        written[cpus] = model.read_bytes(), out.read_bytes()
    assert written[1] == written[2]


def _lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def _s_line(lines, block):
    """Index of the S line of 0-based block ``block``."""
    return [i for i, line in enumerate(lines) if line.startswith("S ")][block]


def _bad_category(rng, gold, lo, hi):
    """Adds a line with an unknown category to a gold block in rows
    [lo, hi); returns the added line's number."""
    lines = _lines(gold)
    at = _s_line(lines, rng.randrange(lo, hi)) + 1
    _write_lines(Path(gold), lines[:at] + ["A 0 1|||WHAT|||x"] + lines[at:])
    return at + 1


def _cut(rng, path, lo, hi):
    """Cuts a file to a length in [lo, hi); returns its new length."""
    keep = rng.randrange(lo, hi)
    _write_lines(Path(path), _lines(path)[:keep])
    return keep


def _gold_error_then_short_hypothesis(rng, src, hyps, gold):
    line = _bad_category(rng, gold, 0, 256)
    _cut(rng, hyps[2], 512, 700)
    return "ensemble-train", f"error: {gold}:line {line}: unknown category 'WHAT'"


def _short_hypothesis_then_gold_error(rng, src, hyps, gold):
    keep = _cut(rng, hyps[0], 1, 256)
    _bad_category(rng, gold, 256, 700)
    return "ensemble-train", f"error: {hyps[0]}:line {keep + 1}: file ends, but {src} goes on"


def _foreign_gold_source_then_gold_error(rng, src, hyps, gold):
    row = rng.randrange(256, 512)
    lines = _lines(gold)
    at = _s_line(lines, row)
    # The same length, so the block's edits stay in range.
    lines[at] = "S " + " ".join("x" + token for token in lines[at].split()[1:])
    _write_lines(Path(gold), lines)
    _bad_category(rng, gold, 512, 700)
    return ("ensemble-train",
            f"error: {gold}:line {at + 1}: gold source does not match source file")


def _bad_utf8_then_short_hypothesis(rng, src, hyps, gold):
    row = rng.randrange(256, 512)
    lines = Path(src).read_bytes().splitlines(keepends=True)
    lines[row] = b"\xff" + lines[row]
    Path(src).write_bytes(b"".join(lines))
    _cut(rng, hyps[1], 512, 700)
    return "ensemble-apply", f"error: {src}:line {row + 1}: not valid UTF-8"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("corrupt", [
    _gold_error_then_short_hypothesis, _short_hypothesis_then_gold_error,
    _foreign_gold_source_then_gold_error, _bad_utf8_then_short_hypothesis,
], ids=lambda f: f.__name__.strip("_").replace("_", "-"))
def test_ensemble_pool_reports_the_first_error_as_one_cpu_does(
        tmp_path, monkeypatch, capsys, corrupt, seed):
    src, hyps, gold = _write_ensemble_corpus(tmp_path, 700, seed=17)
    command, expected = corrupt(random.Random(seed), src, hyps, gold)
    model = tmp_path / "model.json"
    model.write_text('{"weights": [1, 1, 1, 0, 0, 0, 0, 0, 0, 0], "bias": -1.5}',
                     encoding="utf-8")
    last = gold if command == "ensemble-train" else str(model)
    out = tmp_path / "out.txt"
    reported = []
    for cpus in (1, 2):
        code, err, _ = _run_with_cpus(monkeypatch, capsys, cpus,
                                      [command, src, *hyps, last, "-o", str(out)])
        assert code == 2 and err.startswith(expected), err
        assert not out.exists()
        reported.append(err)
    assert reported[0] == reported[1]


def _batched_inputs(root, command):
    """The input arguments of a batched ``command`` over 700 generated rows,
    and the file that holds row N at line N (for ``ensemble-train``, the
    gold file, at block N)."""
    if command.startswith("ensemble"):
        src, hyps, gold = _write_ensemble_corpus(root, 700, seed=17)
        if command == "ensemble-train":
            return [src, *hyps, gold], gold
        model = _write_lines(root / "model.json", [
            '{"weights": [1, 1, 1, 0, 0, 0, 0, 0, 0, 0], "bias": -1.5}'])
        return [src, *hyps, model], src
    pairs, trees, seg = _write_treebank_corpus(root, 700, seed=23)
    if command == "project":
        return [pairs, trees], trees
    if command == "strip":
        return [trees], trees
    source = str(root / "source.trees")
    assert main(["project", pairs, trees, "-o", source,
                 "--summary", str(root / "source.json")]) == 0
    return [source, seg], source


_ROW_FN_OF = {"project": "_project_row", "strip": "_strip_row",
              "subword": "_subword_row", "ensemble-train": "_train_row",
              "ensemble-apply": "_apply_row"}
_ROW_FNS = {name: getattr(cli, name) for name in _ROW_FN_OF.values()}


def _killed_in_second_batch(name, *args):
    """``cli.<name>``, except that the worker given a row of the second
    batch is killed."""
    row = args[-3]
    if row[0] > cli.BATCH_ROWS:
        os.kill(os.getpid(), signal.SIGKILL)
    return _ROW_FNS[name](*args)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("command", _ROW_FN_OF)
def test_pool_worker_killed_is_exit_2(tmp_path, monkeypatch, capsys, command):
    args, _ = _batched_inputs(tmp_path, command)
    out, summary = tmp_path / "out", tmp_path / "summary.json"
    argv = [command, *args, "-o", str(out)]
    if command == "project":
        argv += ["--summary", str(summary)]
    row_fn = _ROW_FN_OF[command]
    monkeypatch.setattr(cli, row_fn, functools.partial(_killed_in_second_batch, row_fn))
    code, err, _ = _run_with_cpus(monkeypatch, capsys, 2, argv)
    assert (code, err) == (2, "error: a worker process ended abruptly "
                              "(killed, or out of memory)\n")
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("command", ["align", "project"])
def test_a_reader_closing_standard_output_is_exit_141(tmp_path, command):
    # 1,000 rows: `project` runs them in more than one batch, pooled where
    # there is more than one CPU, and each command writes about 200 KB, far
    # more than a pipe holds, so it writes again after the reader has gone.
    pairs, trees, _ = _write_treebank_corpus(tmp_path, 1000, seed=29)
    args = [pairs] if command == "align" else [pairs, trees]
    proc = subprocess.Popen([sys.executable, "-m", "gecsyntax.cli", command, *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _break_row(command, path, bad):
    """Puts an input error in row ``bad`` of ``path``, the file that
    :func:`_batched_inputs` names; gives the error reported."""
    if command == "ensemble-train":
        lines = _lines(path)
        at = _s_line(lines, bad - 1) + 1
        _write_lines(Path(path), lines[:at] + ["A 0 1|||WHAT|||x"] + lines[at:])
        return f"{path}:line {at + 1}: unknown category 'WHAT'"
    if command == "ensemble-apply":
        # Its rows raise no error of their own; the reader raises at the row.
        lines = Path(path).read_bytes().splitlines(keepends=True)
        lines[bad - 1] = b"\xff" + lines[bad - 1]
        Path(path).write_bytes(b"".join(lines))
        return f"{path}:line {bad}: not valid UTF-8"
    _replace_line(path, bad - 1, _lines(path)[bad - 1][:-1])
    return f"{path}:line {bad}: unbalanced parentheses"


def _run_to_stdout(monkeypatch, capsys, cpus, argv):
    """``_run_with_cpus`` with standard output caught: the exit code, stderr
    and standard output."""
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    code, err, _ = _run_with_cpus(monkeypatch, capsys, cpus, argv)
    return code, err, out.getvalue()


@pytest.mark.parametrize("bad", [41, 257, 300])
@pytest.mark.parametrize("command", _ROW_FN_OF)
def test_stdout_before_an_error_is_the_rows_before_it(
        tmp_path, monkeypatch, capsys, command, bad):
    args, row_file = _batched_inputs(tmp_path, command)
    code, err, written = _run_to_stdout(monkeypatch, capsys, 1, [command, *args])
    assert code == 0, err
    # ensemble-train writes its model only once every row is read.
    rows_before = 0 if command == "ensemble-train" else bad - 1
    before = "".join(written.splitlines(keepends=True)[:rows_before])
    assert before.count("\n") == rows_before
    expected = _break_row(command, row_file, bad)
    for cpus in (1, 2):
        code, err, written = _run_to_stdout(monkeypatch, capsys, cpus, [command, *args])
        assert (code, err) == (2, f"error: {expected}\n")
        assert written == before


def _logged(caplog):
    """The lines logged, as ``CSYN_LOG`` writes them to stderr."""
    return [f"{rec.levelname} {rec.getMessage()}" for rec in caplog.records]


_SKIPPED_ROWS = (10, 300, 301, 650)  # 0-based, in batches 1, 2 and 3


def test_tree_pool_writes_what_one_cpu_writes(tmp_path, monkeypatch, capsys, caplog):
    pairs, trees, seg = _write_treebank_corpus(tmp_path, 700, seed=23,
                                               skipped=_SKIPPED_ROWS)
    written, logged = {}, {}
    for cpus in (1, 2):
        caplog.clear()
        out = {name: str(tmp_path / f"{cpus}.{name}")
               for name in ("source.trees", "summary.json", "sub.trees", "stripped.trees")}
        for argv, batches in (
                (["project", pairs, trees, "-o", out["source.trees"],
                  "--summary", out["summary.json"]], [256, 256, 188]),
                (["subword", out["source.trees"], seg, "-o", out["sub.trees"]],
                 [256, 256, 184]),
                (["strip", out["source.trees"], "-o", out["stripped.trees"]],
                 [256, 256, 184])):
            code, err, sent = _run_with_cpus(monkeypatch, capsys, cpus, argv)
            assert (code, err, sent) == (0, "", batches if cpus > 1 else []), err
        written[cpus] = [Path(path).read_bytes() for path in out.values()]
        logged[cpus] = _logged(caplog)
    assert written[1] == written[2]
    assert logged[1] == logged[2]
    assert [re.match(r"WARNING line (\d+): skipped: target tree yield does not match ",
                     line)[1] for line in logged[2]] == [str(row + 1) for row in _SKIPPED_ROWS]
    assert json.loads(written[2][1])["skipped"] == len(_SKIPPED_ROWS)


def _replace_line(path, row, line):
    lines = _lines(path)
    lines[row] = line
    _write_lines(Path(path), lines)


def _bad_tree_then_short_trees(rng, root, pairs, trees, seg):
    row = rng.randrange(0, 256)
    _replace_line(trees, row, _lines(trees)[row][:-1])
    _cut(rng, trees, 512, 700)
    return (["project", pairs, trees],
            f"error: {trees}:line {row + 1}: unbalanced parentheses\n", [])


def _three_fields_then_bad_utf8(rng, root, pairs, trees, seg):
    row = rng.randrange(256, 512)
    _replace_line(pairs, row, _lines(pairs)[row] + "\tx")
    lines = Path(trees).read_bytes().splitlines(keepends=True)
    lines[rng.randrange(600, 700)] = b"(S (X \xff))\n"
    Path(trees).write_bytes(b"".join(lines))
    return (["project", pairs, trees],
            f"error: {pairs}:line {row + 1}: "
            f"expected 'source<TAB>target', got 3 field(s)\n", [])


def _all_pseudo_tree(rng, root, pairs, trees, seg):
    row = rng.randrange(256, 512)
    _replace_line(trees, row, "(RED x)")
    return (["strip", trees],
            f"error: {trees}:line {row + 1}: "
            f"stripping pseudo nodes did not leave a single rooted tree\n", [])


def _bad_segmentation_then_count_mismatch(rng, root, pairs, trees, seg):
    source = str(root / "source.trees")
    assert main(["project", pairs, trees, "-o", source, "--summary", str(root / "s.json")]) == 0
    row = rng.randrange(256, 512)
    fields = _lines(seg)[row].split("\t")
    word = fields[0].replace(" @@", "")
    _replace_line(seg, row, "\t".join([fields[0] + "x", *fields[1:]]))
    _cut(rng, seg, 512, 700)
    return (["subword", source, seg],
            f"error: {seg}:line {row + 1}: subword pieces "
            f"{(fields[0] + 'x').split()!r} reassemble to {word + 'x'!r}, "
            f"expected {word!r}\n", [])


def _skip_then_error_in_same_batch(rng, root, pairs, trees, seg):
    skipped, bad = sorted(rng.sample(range(256, 512), 2))
    tree = _lines(trees)[skipped]
    _replace_line(trees, skipped, tree[:tree.rindex(")")] + " (NN w0))")
    _replace_line(trees, bad, "(S (X a)) (S (X b))")
    return (["project", pairs, trees],
            f"error: {trees}:line {bad + 1}: trailing material after the tree\n",
            [f"WARNING line {skipped + 1}: skipped: target tree yield does not match "])


def _malformed_line_where_other_file_ends(rng, root, pairs, trees, seg):
    row = rng.randrange(256, 512)
    _replace_line(pairs, row, "no tab here")
    _write_lines(Path(trees), _lines(trees)[:row])
    return (["project", pairs, trees],
            f"error: {trees}:line {row + 1}: file ends, but {pairs} goes on\n", [])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("corrupt", [
    _bad_tree_then_short_trees, _three_fields_then_bad_utf8, _all_pseudo_tree,
    _bad_segmentation_then_count_mismatch, _skip_then_error_in_same_batch,
    _malformed_line_where_other_file_ends,
], ids=lambda f: f.__name__.strip("_").replace("_", "-"))
def test_tree_pool_reports_the_first_error_as_one_cpu_does(
        tmp_path, monkeypatch, capsys, caplog, corrupt, seed):
    pairs, trees, seg = _write_treebank_corpus(tmp_path, 700, seed=23)
    argv, expected, warnings = corrupt(random.Random(seed), tmp_path, pairs, trees, seg)
    inputs = sorted(tmp_path.iterdir())
    outputs = ["-o", str(tmp_path / "out.trees")]
    if argv[0] == "project":
        outputs += ["--summary", str(tmp_path / "summary.json")]
    reported = []
    for cpus in (1, 2):
        caplog.clear()
        code, err, _ = _run_with_cpus(monkeypatch, capsys, cpus, [*argv, *outputs])
        logged = _logged(caplog)
        assert (code, err) == (2, expected)
        assert [line[:len(prefix)] for line, prefix in zip(logged, warnings)] == warnings
        assert len(logged) == len(warnings)
        assert sorted(tmp_path.iterdir()) == inputs
        reported.append((err, logged))
    assert reported[0] == reported[1]


_M2_BLOCK = [b"S a b", b"A 1 2|||SUB|||c", b""]


def _error_then_bad_utf8(root, command, size, bad, utf8):
    """Writes inputs of ``size`` lines for ``command`` with a content error
    (or a file that ends) at line ``bad`` and a byte that is not UTF-8 at
    line ``utf8``.  Gives the input paths and the expected error."""
    def write(name, lines, replaced=()):
        lines = list(lines)
        for lineno, line in replaced:
            lines[lineno - 1] = line
        (root / name).write_bytes(b"".join(line + b"\n" for line in lines))
        return str(root / name)

    if command == "align":
        pairs = write("pairs.tsv", [b"a b\ta c"] * size,
                      [(bad, b"no tab here"), (utf8, b"a \xff\ta")])
        return [pairs], f"{pairs}:line {bad}: expected 'source<TAB>target', got 1 field(s)"
    if command == "score":
        m2 = (_M2_BLOCK * size)[:size]
        hyp = write("hyp.m2", m2, [(bad, b"A 1 2|||WHAT|||c"), (utf8, b"S a \xff")])
        return [hyp, write("gold.m2", m2)], f"{hyp}:line {bad}: unknown category 'WHAT'"
    if command.startswith("ensemble"):
        src = write("src.txt", [b"a b"] * size, [(utf8, b"a \xff")])
        hyp = write("hyp.txt", [b"a c"] * (bad - 1))
        last = (write("gold.m2", (_M2_BLOCK * size)[:-1]) if command == "ensemble-train"
                else write("model.json", [b'{"weights": [1, 0, 0, 0, 0], "bias": 0}']))
        return [src, hyp, last], f"{hyp}:line {bad}: file ends, but {src} goes on"
    tree = b"(S (X a) (Y b))"
    trees = write("t.trees", [tree] * size, [(bad, tree[:-1]), (utf8, b"(S (X \xff) (Y b))")])
    paths = {"project": [write("pairs.tsv", [b"a b\ta b"] * size), trees],
             "subword": [trees, write("seg.tsv", [b"a\tb"] * size)]}
    return paths.get(command, [trees]), f"{trees}:line {bad}: unbalanced parentheses"


@pytest.mark.parametrize("size,bad,utf8", [(100, 41, 61), (700, 299, 451)])
@pytest.mark.parametrize("command", [
    "align", "project", "strip", "subword", "gcn-check", "ensemble-train",
    "ensemble-apply", "score"])
def test_bad_utf8_is_reported_after_an_earlier_error(
        tmp_path, monkeypatch, capsys, command, size, bad, utf8):
    # Both lines lie in the first 8 KB of the file, which a chunked UTF-8
    # reader decodes before it hands on line 1.  With 700 lines the batched
    # commands run their batches in the pool on two CPUs.
    args, expected = _error_then_bad_utf8(tmp_path, command, size, bad, utf8)
    inputs = sorted(tmp_path.iterdir())
    outputs = [] if command == "gcn-check" else ["-o", str(tmp_path / "out")]
    batched = command in ("project", "strip", "subword", "ensemble-train",
                          "ensemble-apply")
    for cpus in (1, 2):
        code, err, sent = _run_with_cpus(monkeypatch, capsys, cpus,
                                         [command, *args, *outputs])
        assert (code, err) == (2, f"error: {expected}\n")
        assert bool(sent) == (batched and cpus == 2 and size > cli.BATCH_ROWS)
        assert sorted(tmp_path.iterdir()) == inputs


def _write_one_line_inputs(root):
    """One-line inputs for every command except ``gcn-check``."""
    _write_lines(root / "pairs.tsv", ["a dog sat\ta cat sat"])
    _write_lines(root / "targets.trees", ["(S (DT a) (NN cat) (VB sat))"])
    _write_lines(root / "seg.tsv", ["a\tcat\tsat"])
    _write_lines(root / "src.txt", ["a dog sat"])
    _write_lines(root / "hyp.txt", ["a cat sat"])
    _write_m2(root / "edits.m2", ["a dog sat"], ["a cat sat"])
    (root / "model.json").write_text('{"weights": [1, 0, 0, 0, 0], "bias": 0}',
                                     encoding="utf-8")


# A child process imports the package, runs one command if given one, and
# reports whether numpy was loaded.
_NUMPY_CHILD = """
import sys
import gecsyntax
code = 0
if sys.argv[1:]:
    from gecsyntax.cli import main
    code = main(sys.argv[1:])
print("numpy" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("argv,loads_numpy", [
    pytest.param([], False, id="import"),
    pytest.param(["align", "pairs.tsv"], False, id="align"),
    pytest.param(["align", "pairs.tsv", "--format", "m2"], False, id="align-m2"),
    pytest.param(["project", "pairs.tsv", "targets.trees"], False, id="project"),
    pytest.param(["strip", "targets.trees"], False, id="strip"),
    pytest.param(["subword", "targets.trees", "seg.tsv"], False, id="subword"),
    pytest.param(["score", "edits.m2", "edits.m2"], False, id="score"),
    pytest.param(["ensemble-train", "src.txt", "hyp.txt", "edits.m2"], True,
                 id="ensemble-train"),
])
def test_only_numeric_commands_load_numpy(tmp_path, argv, loads_numpy):
    _write_one_line_inputs(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _NUMPY_CHILD, *argv], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loads_numpy)


# A child process runs one command and reports whether multiprocessing,
# which the worker pool needs, was loaded.
_POOL_CHILD = """
import sys
from gecsyntax.cli import main
code = main(sys.argv[1:])
print("multiprocessing" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["align", "pairs.tsv"],
    ["project", "pairs.tsv", "targets.trees"],
    ["subword", "targets.trees", "seg.tsv"],
    ["strip", "targets.trees"],
    ["score", "edits.m2", "edits.m2"],
    ["ensemble-train", "src.txt", "hyp.txt", "edits.m2"],
    ["ensemble-apply", "src.txt", "hyp.txt", "model.json"],
], ids=lambda argv: argv[0])
def test_one_batch_commands_do_not_load_the_worker_pool(tmp_path, argv):
    _write_one_line_inputs(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _POOL_CHILD, *argv], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("value", ["basic_format", "verbose"])
def test_csyn_log_other_than_a_level_means_warning(tmp_path, value):
    parallel = _write_lines(tmp_path / "p.tsv", ["a dog sat\ta cat sat"])
    proc = subprocess.run([sys.executable, "-m", "gecsyntax.cli", "align", parallel],
                          env={**child_env(), "CSYN_LOG": value},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_score_self_is_perfect(tmp_path, capsys):
    m2 = tmp_path / "edits.m2"
    blocks = [
        (["a", "cat"], E.align(["a", "cat"], ["a", "dog"])),
        (["b"], E.EditScript()),
    ]
    with open(m2, "w", encoding="utf-8") as fh:
        E.write_m2(blocks, fh)
    assert main(["score", str(m2), str(m2)]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert scores["P"] == 1.0 and scores["R"] == 1.0 and scores["F05"] == 1.0


def test_score_source_mismatch_is_exit_2(tmp_path, capsys):
    a = tmp_path / "a.m2"
    b = tmp_path / "b.m2"
    a.write_text("S a cat\nA 1 2|||SUB|||dog\n\nS the cat\n", encoding="utf-8")
    b.write_text("S a cat\n\nS a dog\n", encoding="utf-8")
    assert main(["score", str(a), str(b)]) == 2
    err = capsys.readouterr().err
    assert f"{a}:line 4: " in err and "differ" in err and "gold line 3" in err


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    trees = tmp_path / "t.trees"
    trees.write_bytes("(S (NN caf\u00e9))\n".encode("utf-8"))
    proc = subprocess.run([sys.executable, "-m", "gecsyntax.cli", "strip", str(trees)],
                          env={**child_env(), "PYTHONIOENCODING": "ascii"},
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(S (NN caf\u00e9))\n".encode("utf-8")


def test_score_bad_edit_shape_is_exit_2(tmp_path, capsys):
    good = tmp_path / "good.m2"
    good.write_text("S a\n\nS a b\n", encoding="utf-8")
    bad = tmp_path / "bad.m2"
    bad.write_text("S a\n\nS a b\nA 0 2|||SUB|||x\n", encoding="utf-8")
    assert main(["score", str(bad), str(good)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "bad SUB shape" in err


def test_commands_rerun_byte_identical(tmp_path, three_pair_fixture, capsys):
    parallel, tree_file = three_pair_fixture
    outputs = []
    for _ in range(2):
        assert main(["project", str(parallel), str(tree_file)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_tsv_line_with_form_feed_projects(tmp_path, capsys):
    # Only newlines end a line: the form feed is whitespace inside the source.
    parallel = tmp_path / "p.tsv"
    parallel.write_text("a\x0ccat\ta cat\n", encoding="utf-8")
    trees = tmp_path / "t.trees"
    trees.write_text("(S (DT a) (NN cat))\n", encoding="utf-8")
    assert main(["project", str(parallel), str(trees)]) == 0
    assert capsys.readouterr().out == "(S (DT a) (NN cat))\n"


def test_read_lines_splits_and_decodes_as_a_utf8_reader(tmp_path):
    # Non-ASCII lines take the per-line decode; the line ends and the
    # characters kept inside a line must be those of a UTF-8 text reader.
    path = tmp_path / "mixed.txt"
    path.write_bytes("caf\u00e9\r\na\u2028b\rc\x85d\x0ce\n\ufeff\u00fc\n\nlast".encode())
    with open(path, encoding="utf-8") as fh:
        expected = [line.rstrip("\n") for line in fh]
    assert list(read_lines(str(path))) == expected
    assert expected == ["caf\u00e9", "a\u2028b", "c\x85d\x0ce", "\ufeff\u00fc", "", "last"]


def test_read_lines_drops_only_the_byte_order_mark_opening_the_file(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes("\ufeff\ufeffa\n\ufeffb\n".encode())
    assert list(read_lines(str(path))) == ["\ufeffa", "\ufeffb"]


def _bom_inputs(root, command):
    """The input files of ``command`` over a small generated corpus."""
    if command == "ensemble-apply":
        src, hyps, _ = _write_ensemble_corpus(root, 30, seed=3)
        model = _write_lines(root / "model.json", [
            '{"weights": [1, 1, 1, 0, 0, 0, 0, 0, 0, 0], "bias": -1.5}'])
        return [src, *hyps, model]
    if command == "score":
        sources, golds, hyps = build_ensemble_corpus(seed=3, n_sentences=30)
        sources = [" ".join(s) for s in sources]
        return [_write_m2(root / "hyp.m2", sources, map(" ".join, hyps[4])),
                _write_m2(root / "gold.m2", sources, map(" ".join, golds))]
    pairs, trees, seg = _write_treebank_corpus(root, 30, seed=5)
    if command in ("align", "project"):
        return [pairs, trees][:1 + (command == "project")]
    source = str(root / "source.trees")
    assert main(["project", pairs, trees, "-o", source,
                 "--summary", str(root / "source.json")]) == 0
    return [source] if command == "strip" else [source, seg]


@pytest.mark.parametrize("command,marked", [
    ("align", 0), ("project", 0), ("project", 1), ("strip", 0), ("subword", 0),
    ("subword", 1), ("score", 0), ("score", 1), ("ensemble-apply", 0),
    ("ensemble-apply", -1),
], ids=["align", "project-pairs", "project-trees", "strip", "subword-trees",
        "subword-segmentation", "score-hypothesis", "score-gold",
        "ensemble-apply-source", "ensemble-apply-model"])
def test_a_byte_order_mark_changes_no_output(tmp_path, capsys, command, marked):
    inputs = _bom_inputs(tmp_path, command)

    def run(name):
        out = tmp_path / name
        argv = [command, *inputs, "-o", str(out)]
        if command == "project":
            argv += ["--summary", str(tmp_path / f"{name}.json")]
        assert main(argv) == 0, capsys.readouterr().err
        summary = tmp_path / f"{name}.json"
        return out.read_bytes(), summary.read_bytes() if summary.exists() else None

    plain = run("plain")
    path = Path(inputs[marked])
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run("marked") == plain


def test_errors_are_reported_in_line_order(tmp_path, capsys):
    parallel = tmp_path / "p.tsv"
    parallel.write_text("a\ta\nb\tb\nno tab here\n", encoding="utf-8")
    trees = tmp_path / "t.trees"
    trees.write_text("(S (X a))\n(S (X b)\n(S (X c))\n", encoding="utf-8")
    assert main(["project", str(parallel), str(trees)]) == 2
    assert "line 2: unbalanced" in capsys.readouterr().err


def test_target_tree_with_pseudo_labels_is_skipped(tmp_path, capsys, caplog):
    parallel = tmp_path / "p.tsv"
    parallel.write_text("a cat\ta cat\nthe dog\tthe dog\n", encoding="utf-8")
    trees = tmp_path / "t.trees"
    trees.write_text("(S (DT a) (NN cat))\n(S (SUB (DT the)) (NN dog))\n",
                     encoding="utf-8")
    summary = tmp_path / "summary.json"
    assert main(["project", str(parallel), str(trees),
                 "--summary", str(summary)]) == 0
    assert capsys.readouterr().out == "(S (DT a) (NN cat))\n"
    assert json.loads(summary.read_text()) == {
        "pairs": 2, "skipped": 1, "pseudo_counts": {"SUB": 0, "RED": 0, "MISS": 0}}
    assert any("line 2" in rec.getMessage() and "SUB" in rec.getMessage()
               for rec in caplog.records)


@pytest.mark.parametrize("command", ["project", "subword"])
def test_line_count_mismatch_leaves_no_output(tmp_path, capsys, command):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (DT a) (NN cat))\n(S (X b))\n", encoding="utf-8")
    if command == "project":
        other = tmp_path / "p.tsv"
        other.write_text("a cat\ta cat\n", encoding="utf-8")
        argv = ["project", str(other), str(trees)]
    else:
        other = tmp_path / "seg.tsv"
        other.write_text("a\tcat\n", encoding="utf-8")
        argv = ["subword", str(trees), str(other)]
    inputs = sorted(tmp_path.iterdir())
    assert main([*argv, "-o", str(tmp_path / "out.trees")]) == 2
    assert "line 2" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs


def test_deeply_nested_tree_passes_every_tree_command(tmp_path, capsys):
    depth = 100_000
    tree_text = "(S " * depth + "(X w)" + ")" * depth + "\n"
    trees = tmp_path / "deep.trees"
    trees.write_text(tree_text, encoding="utf-8")
    parallel = tmp_path / "p.tsv"
    parallel.write_text("w\tw\n", encoding="utf-8")
    seg = tmp_path / "seg.tsv"
    seg.write_text("w\n", encoding="utf-8")
    for argv in (["strip", str(trees)], ["subword", str(trees), str(seg)],
                 ["project", str(parallel), str(trees)]):
        out = tmp_path / "out.trees"
        assert main([*argv, "-o", str(out)]) == 0, argv
        assert out.read_text(encoding="utf-8") == tree_text
    assert "Error" not in capsys.readouterr().err


def test_tree_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_treebank_corpus(tmp_path, 200, seed=909)
    commands = [
        ["project", "pairs.tsv", "targets.trees", "-o", "source.trees",
         "--summary", "summary.json"],
        ["subword", "source.trees", "seg.tsv", "-o", "sub.trees"],
        ["strip", "source.trees", "-o", "stripped.trees"],
    ]
    # argparse's help formatters are cyclic themselves (a fixed few hundred
    # objects per parser), so the arguments are parsed before the check.
    parsed = [build_parser().parse_args(argv) for argv in commands]
    gc.collect()
    gc.disable()
    try:
        for args in parsed:
            assert args.func(args) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    with open("summary.json", encoding="utf-8") as fh:
        assert json.load(fh)["skipped"] == 0


def test_readme_lists_exactly_the_registered_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r"^gecsyntax (\S+)", block, re.MULTILINE))
    registered = next(a.choices for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert documented == set(registered)
