import random

import pytest

from gecsyntax import tree as T
from gecsyntax.cli import main
from gecsyntax.edits import apply_edits
from gecsyntax.errors import FormatError
from gecsyntax.projection import project
from gecsyntax.subword import join_pieces, parse_segmentation_line, to_subword_tree

from tests.helpers import (
    SRC_VOCAB, random_script, random_tokens, random_tree, subword_tree_oracle,
)


def test_identity_segmentation_is_a_no_op():
    text = "(S (NP (DT the) (NN cat)))"
    assert to_subword_tree(T.bracket_tokens(text), [["the"], ["cat"]]) == text


def test_splits_word_into_sibling_terminals():
    tree = T.bracket_tokens("(S (VBG playing))")
    out = to_subword_tree(tree, [["play", "@@ing"]])
    assert out == "(S (VBG play @@ing))"


def test_pseudo_node_covers_all_subwords():
    for text, segmentation, expected in [
        ("(NN (SUB cat))", [["ca", "@@t"]], "(NN (SUB ca @@t))"),
        ("(S (NP (DT the) (NN (SUB cat))) (VP (VB sat)))",
         [["the"], ["ca", "@@t"], ["s", "@@at"]],
         "(S (NP (DT the) (NN (SUB ca @@t))) (VP (VB s @@at)))"),
    ]:
        assert to_subword_tree(T.bracket_tokens(text), segmentation) == expected


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
    tree = T.bracket_tokens("(S (VBG playing))")
    out = to_subword_tree(tree, [["play@@", "ing"]], style="suffix")
    assert out == "(S (VBG play@@ ing))"


def test_custom_join_convention():
    tree = T.bracket_tokens("(S (VBG playing))")
    out = to_subword_tree(tree, [["play", "##ing"]], marker="##")
    assert T.yield_tokens(T.parse_bracketed(out)) == ["play", "##ing"]


def test_mismatched_segmentation_rejected():
    tree = T.bracket_tokens("(S (NN cat))")
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
        out = T.parse_bracketed(to_subword_tree(T.bracket_tokens(T.serialize(tree)), seg))

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


def _cut(word, rng, marker, style):
    """``word`` split at random points, marked by ``marker`` in ``style``."""
    cuts = sorted(rng.sample(range(1, len(word)), rng.randint(0, len(word) - 1)))
    bounds = [0, *cuts, len(word)]
    pieces = [word[a:b] for a, b in zip(bounds, bounds[1:])]
    if style == "prefix":
        return pieces[:1] + [marker + p for p in pieces[1:]]
    return [p + marker for p in pieces[:-1]] + pieces[-1:]


def _segmentations(words, rng):
    """``(segmentation, marker, style)`` cases for one tree's words."""
    cases = []
    for marker, style in (("@@", "prefix"), ("@@", "suffix"), ("##", "prefix")):
        seg = [_cut(w, rng, marker, style) for w in words]
        cases.append((seg, marker, style))
    seg = cases[0][0]
    k = rng.randrange(len(words))
    wrong = [list(p) for p in seg]
    wrong[k] = wrong[k][:-1] + [wrong[k][-1] + "x"]
    empty = [list(p) for p in seg]
    empty[k] = []
    cases += [(seg[:-1], "@@", "prefix"), (seg + [["extra"]], "@@", "prefix"),
              (empty, "@@", "prefix"), (wrong, "@@", "prefix")]
    if len(words) > 1:   # one word short, and the first piece list empty
        cases.append(([[]] + seg[2:], "@@", "prefix"))
    return cases


def test_matches_the_two_pass_oracle():
    # Projected trees (pseudo nodes, unary chains) against valid and broken
    # segmentations: the same tree, or the same error text, as the oracle.
    rng = random.Random(57)
    checked = errors = 0
    while checked < 1_000:
        src = random_tokens(rng, rng.randint(1, 10), SRC_VOCAB)
        script = random_script(src, rng, SRC_VOCAB)
        tgt = apply_edits(src, script)
        if not tgt:
            continue
        target = T.bracket_tokens(T.serialize(random_tree(tgt, rng, unary_prob=0.3)))
        text = project(target, script, src).source_tree
        tree = T.parse_bracketed(text)
        for seg, marker, style in _segmentations(T.yield_tokens(tree), rng):
            expected = subword_tree_oracle(tree, seg, marker, style)
            if not isinstance(expected, str):
                expected = T.serialize(expected)
            try:
                got = to_subword_tree(T.bracket_tokens(text), seg, marker, style)
            except ValueError as err:
                got = str(err)
                errors += 1
            assert got == expected, (text, seg, marker, style)
            checked += 1
    assert 0 < errors < checked


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


def test_pieces_are_checked_unescaped_and_written_escaped(tmp_path, capsys):
    trees = tmp_path / "t.trees"
    trees.write_text("(S (NN -LRB-) (NN x))\n", encoding="utf-8")
    seg = tmp_path / "seg.tsv"
    seg.write_text("(\tx\n", encoding="utf-8")
    assert main(["subword", str(trees), str(seg)]) == 0
    assert capsys.readouterr().out == "(S (NN -LRB-) (NN x))\n"
    seg.write_text("-LRB-\tx\n", encoding="utf-8")
    assert main(["subword", str(trees), str(seg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {seg}:line 1: subword pieces ['-LRB-'] reassemble to '-LRB-', "
        "expected '('\n")
