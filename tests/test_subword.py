import random

import pytest

from gecsyntax import tree as T
from gecsyntax.cli import main
from gecsyntax.errors import FormatError
from gecsyntax.subword import join_pieces, parse_segmentation_line, to_subword_tree

from tests.helpers import SRC_VOCAB, random_tokens, random_tree


def test_identity_segmentation_is_a_no_op():
    tree = T.parse_bracketed("(S (NP (DT the) (NN cat)))")
    assert to_subword_tree(tree, [["the"], ["cat"]]) == tree


def test_splits_word_into_sibling_terminals():
    tree = T.parse_bracketed("(S (VBG playing))")
    out = to_subword_tree(tree, [["play", "@@ing"]])
    assert T.serialize(out) == "(S (VBG play @@ing))"


def test_pseudo_node_covers_all_subwords():
    tree = T.parse_bracketed("(NN (SUB cat))")
    out = to_subword_tree(tree, [["ca", "@@t"]])
    assert T.serialize(out) == "(NN (SUB ca @@t))"


def test_join_pieces_styles():
    assert join_pieces(["play", "@@ing"]) == "playing"
    assert join_pieces(["play@@", "ing"], style="suffix") == "playing"
    assert join_pieces(["solo"]) == "solo"
    with pytest.raises(ValueError):
        join_pieces(["a"], style="infix")


def test_join_pieces_with_empty_marker():
    assert join_pieces(["play", "ing"], marker="", style="suffix") == "playing"
    assert join_pieces(["play", "ing"], marker="", style="prefix") == "playing"


def test_suffix_marker_convention():
    tree = T.parse_bracketed("(S (VBG playing))")
    out = to_subword_tree(tree, [["play@@", "ing"]], style="suffix")
    assert T.serialize(out) == "(S (VBG play@@ ing))"


def test_custom_join_convention():
    tree = T.parse_bracketed("(S (VBG playing))")
    out = to_subword_tree(tree, [["play", "##ing"]], marker="##")
    assert T.yield_tokens(out) == ["play", "##ing"]


def test_mismatched_segmentation_rejected():
    tree = T.parse_bracketed("(S (NN cat))")
    with pytest.raises(ValueError):
        to_subword_tree(tree, [["ca", "@@t"], ["extra"]])
    with pytest.raises(ValueError):
        to_subword_tree(tree, [["do", "@@g"]])
    with pytest.raises(ValueError):
        to_subword_tree(tree, [[]])


def test_structure_counts_and_parent_labels():
    rng = random.Random(41)
    for _ in range(100):
        tokens = random_tokens(rng, rng.randint(1, 8), SRC_VOCAB)
        tree = random_tree(tokens, rng)
        seg = []
        for tok in tokens:
            if len(tok) > 1 and rng.random() < 0.5:
                cut = rng.randint(1, len(tok) - 1)
                seg.append([tok[:cut], "@@" + tok[cut:]])
            else:
                seg.append([tok])
        out = to_subword_tree(tree, seg)

        pieces = T.yield_tokens(out)
        assert len(pieces) == sum(len(s) for s in seg)
        rebuilt = []
        idx = 0
        for group in seg:
            rebuilt.append(join_pieces(pieces[idx:idx + len(group)]))
            idx += len(group)
        assert rebuilt == tokens

        def nt_count(node):
            if isinstance(node, T.Terminal):
                return 0
            return 1 + sum(nt_count(c) for c in node.children)

        assert nt_count(out) == nt_count(tree)

        def parent_of_terminals(node, parent=None, acc=None):
            acc = [] if acc is None else acc
            if isinstance(node, T.Terminal):
                acc.append(parent.label)
            else:
                for c in node.children:
                    parent_of_terminals(c, node, acc)
            return acc

        before = parent_of_terminals(tree)
        after = parent_of_terminals(out)
        expanded = []
        for label, group in zip(before, seg):
            expanded.extend([label] * len(group))
        assert after == expanded


def test_parse_segmentation_line():
    assert parse_segmentation_line("the\tca @@t\n") == [["the"], ["ca", "@@t"]]
    with pytest.raises(FormatError):
        parse_segmentation_line("   \n", lineno=3)
    with pytest.raises(FormatError):
        parse_segmentation_line("the\t\tcat", lineno=1)


def test_load_segmentation_file(tmp_path, capsys):
    seg = tmp_path / "seg.tsv"
    seg.write_text("the\tca @@t\nplay @@ing\n", encoding="utf-8")
    trees = tmp_path / "t.trees"
    trees.write_text("(S (DT the) (NN cat))\n(S (VBG playing))\n", encoding="utf-8")
    assert main(["subword", str(trees), str(seg)]) == 0
    assert capsys.readouterr().out == "(S (DT the) (NN ca @@t))\n(S (VBG play @@ing))\n"
