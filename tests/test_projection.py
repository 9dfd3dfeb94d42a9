import json
import random

import pytest

from gecsyntax import edits as E
from gecsyntax import tree as T
from gecsyntax.cli import main
from gecsyntax.projection import project, strip_pseudo

from tests.helpers import SRC_VOCAB, random_script, random_tokens, random_tree


def proj(tree_text, edits, src):
    tree = T.parse_bracketed(tree_text)
    return project(tree, E.make_script(edits), src)


def test_error_free_pair_is_unchanged():
    tree = T.parse_bracketed("(S (NP (DT a) (NN cat)))")
    result = project(tree, E.EditScript(), ["a", "cat"])
    assert result.source_tree == tree
    assert result.inserted == []


def test_sub_rule():
    result = proj("(S (NP (DT a) (NN dog)))", [E.sub(1, "cat", "dog")], ["a", "cat"])
    assert T.serialize(result.source_tree) == "(S (NP (DT a) (NN (SUB cat))))"
    assert result.inserted == [("SUB", 1)]


def test_red_rule():
    result = proj("(S (NP (DT a) (NN cat)) (VP (VBD sat)))",
                  [E.red(1, "the")], ["a", "the", "cat", "sat"])
    assert T.serialize(result.source_tree) == \
        "(S (NP (DT a) (RED the) (NN cat)) (VP (VBD sat)))"


def test_miss_rule():
    result = proj("(S (NP (DT the) (NN cat)) (VP (VBD sat)))",
                  [E.miss(0, ["the"])], ["cat", "sat"])
    assert T.serialize(result.source_tree) == \
        "(S (NP (NN (MISS cat))) (VP (VBD sat)))"


def test_sub_above_preterminal():
    tree = T.parse_bracketed("(S (NP (DT a) (NN dog)))")
    result = project(tree, E.make_script([E.sub(1, "cat", "dog")]),
                     ["a", "cat"], placement="above")
    assert T.serialize(result.source_tree) == "(S (NP (DT a) (SUB (NN cat))))"


def test_miss_above_preterminal_stacks_outside_sub():
    tree = T.parse_bracketed("(S (DT a) (NN dog))")
    script = E.make_script([E.miss(0, ["a"]), E.sub(0, "cat", "dog")])
    result = project(tree, script, ["cat"], placement="above")
    assert T.serialize(result.source_tree) == "(S (MISS (SUB (NN cat))))"


def test_chained_redundant_words_share_a_phrase():
    result = proj("(S (NP (DT a) (NN cat)) (VP (VBD sat)))",
                  [E.red(1, "x"), E.red(2, "y")],
                  ["a", "x", "y", "cat", "sat"])
    assert T.serialize(result.source_tree) == \
        "(S (NP (DT a) (RED x) (RED y) (NN cat)) (VP (VBD sat)))"


def test_sentence_final_red_attaches_right_of_left_word():
    result = proj("(S (NP (DT a) (NN cat)) (VP (VBD sat)))",
                  [E.red(3, "x")], ["a", "cat", "sat", "x"])
    assert T.serialize(result.source_tree) == \
        "(S (NP (DT a) (NN cat)) (VP (VBD sat)) (RED x))"


def test_sentence_final_red_chain():
    result = proj("(S (NP (DT a) (NN cat)))",
                  [E.red(2, "x"), E.red(3, "y")], ["a", "cat", "x", "y"])
    assert T.serialize(result.source_tree) == \
        "(S (NP (DT a) (NN cat) (RED x) (RED y)))"


def test_red_walks_through_unary_chain():
    result = proj("(S (NP (NP (NN cat))))", [E.red(0, "x")], ["x", "cat"])
    assert T.serialize(result.source_tree) == "(S (RED x) (NP (NP (NN cat))))"


def test_multiword_miss_inserts_one_node():
    result = proj("(S (NP (DT the) (JJ big) (NN cat)) (VP (VBD sat)))",
                  [E.miss(0, ["the", "big"])], ["cat", "sat"])
    assert T.serialize(result.source_tree) == \
        "(S (NP (NN (MISS cat))) (VP (VBD sat)))"
    assert result.inserted == [("MISS", 0)]


def test_sentence_final_miss_anchors_left_word():
    result = proj("(S (NN cat) (RB now))", [E.miss(1, ["now"])], ["cat"])
    assert T.serialize(result.source_tree) == "(S (NN (MISS cat)))"


def test_stacked_miss_and_sub_on_one_word():
    tree = T.parse_bracketed("(S (DT a) (NN dog))")
    script = E.make_script([E.miss(0, ["a"]), E.sub(0, "cat", "dog")])
    result = project(tree, script, ["cat"])
    assert T.serialize(result.source_tree) == "(S (NN (MISS (SUB cat))))"
    assert sorted(result.inserted) == [("MISS", 0), ("SUB", 0)]


def test_yield_mismatch_is_an_error():
    tree = T.parse_bracketed("(S (NN cat))")
    with pytest.raises(ValueError):
        project(tree, E.EditScript(), ["dog"])


def test_target_tree_with_pseudo_nodes_is_an_error():
    tree = T.parse_bracketed("(S (NP (SUB (DT a))) (NN cat))")
    with pytest.raises(ValueError, match="SUB"):
        project(tree, E.EditScript(), ["a", "cat"])


def test_empty_source_with_script_is_an_error():
    tree = T.parse_bracketed("(S (NN cat))")
    with pytest.raises(ValueError):
        project(tree, E.make_script([E.miss(0, ["cat"])]), [])


def test_bad_placement_rejected():
    tree = T.parse_bracketed("(S (NN cat))")
    with pytest.raises(ValueError):
        project(tree, E.EditScript(), ["cat"], placement="inside")


def test_strip_pseudo_no_op_without_pseudo():
    tree = T.parse_bracketed("(S (NP (DT a) (NN cat)))")
    assert strip_pseudo(tree) == tree


def test_strip_pseudo_removes_red_with_word():
    tree = T.parse_bracketed("(S (NP (DT a) (RED the) (NN cat)))")
    assert T.serialize(strip_pseudo(tree)) == "(S (NP (DT a) (NN cat)))"


def test_strip_pseudo_unwraps_unary_pseudo():
    assert T.serialize(strip_pseudo(T.parse_bracketed("(NN (SUB cat))"))) == "(NN cat)"
    assert T.serialize(strip_pseudo(T.parse_bracketed("(NN (MISS (SUB cat)))"))) \
        == "(NN cat)"


def test_strip_pseudo_promotes_subword_children():
    tree = T.parse_bracketed("(NN (SUB ca @@t))")
    assert T.serialize(strip_pseudo(tree)) == "(NN ca @@t)"


def test_strip_pseudo_on_everything_pseudo_raises():
    with pytest.raises(ValueError):
        strip_pseudo(T.parse_bracketed("(RED x)"))


def _count_nodes(root):
    nts = terms = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, T.Terminal):
            terms += 1
        else:
            nts += 1
            stack.extend(node.children)
    return nts, terms


@pytest.mark.parametrize("placement", ["below", "above"])
def test_randomized_projection_properties(placement):
    rng = random.Random(23 if placement == "below" else 24)
    for _ in range(300):
        src = random_tokens(rng, rng.randint(1, 12), SRC_VOCAB)
        script = random_script(src, rng, SRC_VOCAB, force_empty_prob=0.1)
        tgt = E.apply_edits(src, script)
        if not tgt:
            continue
        target_tree = random_tree(tgt, rng)
        result = project(target_tree, script, src, placement=placement)
        projected = result.source_tree

        assert T.yield_tokens(projected) == src
        counts = {"SUB": 0, "RED": 0, "MISS": 0}
        for label, _ in result.inserted:
            counts[label] += 1
        assert counts == script.category_counts()
        in_tree = {"SUB": 0, "RED": 0, "MISS": 0}
        stack = [projected]
        while stack:
            node = stack.pop()
            if isinstance(node, T.NonTerminal):
                if node.label in in_tree:
                    in_tree[node.label] += 1
                stack.extend(node.children)
        assert in_tree == counts

        if not script.edits:
            assert projected == target_tree

        stripped = strip_pseudo(projected)
        red_words = {e.i for e in script if e.category == E.RED}
        assert T.yield_tokens(stripped) == \
            [w for i, w in enumerate(src) if i not in red_words]
        nts_p, terms_p = _count_nodes(projected)
        nts_s, terms_s = _count_nodes(stripped)
        assert nts_s == nts_p - sum(counts.values())
        assert terms_s == terms_p - counts["RED"]


def test_sub_only_scripts_strip_back_to_target():
    rng = random.Random(31)
    for _ in range(100):
        src = random_tokens(rng, rng.randint(2, 10), SRC_VOCAB)
        script = random_script(src, rng, SRC_VOCAB,
                               sub_prob=0.4, red_prob=0.0, miss_prob=0.0)
        tgt = E.apply_edits(src, script)
        target_tree = random_tree(tgt, rng)
        projected = project(target_tree, script, src).source_tree
        stripped = strip_pseudo(projected)
        words = list(T.terminals(stripped))
        for e in script:
            words[e.i].token = e.tgt_tokens[0]
        assert stripped == target_tree


def _project_command(root, pairs, trees, caplog):
    """Runs ``project`` on the pairs and target trees; gives the projected
    trees, the summary and the skipped ``(lineno, reason)`` pairs."""
    parallel, tree_file = root / "pairs.tsv", root / "targets.trees"
    parallel.write_text("".join(f"{s}\t{t}\n" for s, t in pairs), encoding="utf-8")
    tree_file.write_text("".join(t + "\n" for t in trees), encoding="utf-8")
    out, summary = root / "out.trees", root / "summary.json"
    caplog.clear()
    assert main(["project", str(parallel), str(tree_file), "-o", str(out),
                 "--summary", str(summary)]) == 0
    skips = [rec.args for rec in caplog.records if rec.msg == "line %d: skipped: %s"]
    return (list(T.read_trees(out.read_text(encoding="utf-8").splitlines())),
            json.loads(summary.read_text(encoding="utf-8")), skips)


def test_project_command_roundtrip_and_skip(tmp_path, caplog):
    pairs = [("a cat", "a cat"), ("a dog", "a cat"), ("b cat", "mismatched yield")]
    trees = ["(S (DT a) (NN cat))", "(S (DT a) (NN cat))", "(S (DT wrong) (NN words))"]
    results, summary, skips = _project_command(tmp_path, pairs, trees, caplog)
    assert len(results) == 2  # the third pair is skipped
    assert results[0] == T.parse_bracketed(trees[0])
    assert T.serialize(results[1]) == "(S (DT a) (NN (SUB dog)))"
    assert summary["pairs"] == 3
    assert summary["skipped"] == 1
    assert summary["pseudo_counts"] == {"SUB": 1, "RED": 0, "MISS": 0}
    assert [lineno for lineno, _ in skips] == [3]
    assert skips[0][1].startswith("target tree yield does not match")


def test_project_command_category_fixture(tmp_path, caplog):
    pairs = [("a dog sat", "a cat sat"), ("a the cat", "a cat"), ("cat sat", "the cat sat")]
    trees = ["(S (DT a) (NN cat) (VB sat))", "(S (DT a) (NN cat))",
             "(S (DT the) (NN cat) (VB sat))"]
    results, summary, skips = _project_command(tmp_path, pairs, trees, caplog)
    assert summary["skipped"] == 0 and skips == []
    multisets = []
    for tree in results:
        labels = sorted(
            node.label for node in _iter_nonterminals(tree)
            if node.label in T.PSEUDO_LABELS)
        multisets.append(labels)
    assert multisets == [["SUB"], ["RED"], ["MISS"]]


def _iter_nonterminals(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, T.NonTerminal):
            yield node
            stack.extend(node.children)
