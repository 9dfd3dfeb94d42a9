import hashlib
import json
import random

import pytest

from gecsyntax import edits as E
from gecsyntax import tree as T
from gecsyntax.cli import main
from gecsyntax.projection import ProjectionResult, project, strip_pseudo

from tests.helpers import (
    SRC_VOCAB, category_counts, miss, project_oracle, random_script, random_tokens,
    random_tree, red, strip_pseudo_oracle, sub, subword_tree_oracle,
)


def proj(tree_text, edits, src):
    return project(T.bracket_tokens(tree_text), E.make_script(edits), src)


def test_error_free_pair_is_unchanged():
    text = "(S (NP (DT a) (NN cat)))"
    result = project(T.bracket_tokens(text), E.EditScript(), ["a", "cat"])
    assert result.source_tree == text
    assert result.inserted == []


def test_sub_rule():
    result = proj("(S (NP (DT a) (NN dog)))", [sub(1, "cat", "dog")], ["a", "cat"])
    assert result.source_tree == "(S (NP (DT a) (NN (SUB cat))))"
    assert result.inserted == [("SUB", 1)]


def test_red_rule():
    result = proj("(S (NP (DT a) (NN cat)) (VP (VBD sat)))",
                  [red(1, "the")], ["a", "the", "cat", "sat"])
    assert result.source_tree == \
        "(S (NP (DT a) (RED the) (NN cat)) (VP (VBD sat)))"


def test_miss_rule():
    result = proj("(S (NP (DT the) (NN cat)) (VP (VBD sat)))",
                  [miss(0, ["the"])], ["cat", "sat"])
    assert result.source_tree == \
        "(S (NP (NN (MISS cat))) (VP (VBD sat)))"


def test_sub_above_preterminal():
    tree = T.bracket_tokens("(S (NP (DT a) (NN dog)))")
    result = project(tree, E.make_script([sub(1, "cat", "dog")]),
                     ["a", "cat"], placement="above")
    assert result.source_tree == "(S (NP (DT a) (SUB (NN cat))))"


def test_miss_above_preterminal_stacks_outside_sub():
    tree = T.bracket_tokens("(S (DT a) (NN dog))")
    script = E.make_script([miss(0, ["a"]), sub(0, "cat", "dog")])
    result = project(tree, script, ["cat"], placement="above")
    assert result.source_tree == "(S (MISS (SUB (NN cat))))"


def test_chained_redundant_words_share_a_phrase():
    result = proj("(S (NP (DT a) (NN cat)) (VP (VBD sat)))",
                  [red(1, "x"), red(2, "y")],
                  ["a", "x", "y", "cat", "sat"])
    assert result.source_tree == \
        "(S (NP (DT a) (RED x) (RED y) (NN cat)) (VP (VBD sat)))"


def test_sentence_final_red_attaches_right_of_left_word():
    result = proj("(S (NP (DT a) (NN cat)) (VP (VBD sat)))",
                  [red(3, "x")], ["a", "cat", "sat", "x"])
    assert result.source_tree == \
        "(S (NP (DT a) (NN cat)) (VP (VBD sat)) (RED x))"


def test_sentence_final_red_chain():
    result = proj("(S (NP (DT a) (NN cat)))",
                  [red(2, "x"), red(3, "y")], ["a", "cat", "x", "y"])
    assert result.source_tree == \
        "(S (NP (DT a) (NN cat) (RED x) (RED y)))"


def test_red_walks_through_unary_chain():
    result = proj("(S (NP (NP (NN cat))))", [red(0, "x")], ["x", "cat"])
    assert result.source_tree == "(S (RED x) (NP (NP (NN cat))))"


def test_multiword_miss_inserts_one_node():
    result = proj("(S (NP (DT the) (JJ big) (NN cat)) (VP (VBD sat)))",
                  [miss(0, ["the", "big"])], ["cat", "sat"])
    assert result.source_tree == \
        "(S (NP (NN (MISS cat))) (VP (VBD sat)))"
    assert result.inserted == [("MISS", 0)]


def test_sentence_final_miss_anchors_left_word():
    result = proj("(S (NN cat) (RB now))", [miss(1, ["now"])], ["cat"])
    assert result.source_tree == "(S (NN (MISS cat)))"


def test_stacked_miss_and_sub_on_one_word():
    tree = T.bracket_tokens("(S (DT a) (NN dog))")
    script = E.make_script([miss(0, ["a"]), sub(0, "cat", "dog")])
    result = project(tree, script, ["cat"])
    assert result.source_tree == "(S (NN (MISS (SUB cat))))"
    assert sorted(result.inserted) == [("MISS", 0), ("SUB", 0)]


def test_yield_mismatch_is_an_error():
    tree = T.bracket_tokens("(S (NN cat))")
    with pytest.raises(ValueError, match=r"target tree yield does not match "
                       r"apply\(src, script\): \['cat'\] vs \['dog'\]"):
        project(tree, E.EditScript(), ["dog"])


def test_out_of_range_span_is_an_error():
    tree = T.bracket_tokens("(S (X a) (Y x))")
    with pytest.raises(ValueError, match=r"edit span \[5,5\) out of range for 1 tokens"):
        project(tree, E.EditScript((miss(5, ["x"]),)), ["a"])


@pytest.mark.parametrize("edits", [
    [miss(0, ["x"]), red(0, "a"), red(1, "b"), miss(2, ["y"])],
    [miss(0, ["x", "y"]), red(0, "a"), red(1, "b")],
], ids=["miss-at-end", "red-at-end"])
def test_no_kept_word_to_anchor_the_end_is_an_error(edits):
    with pytest.raises(ValueError, match="no source word available to anchor the edit"):
        proj("(S (X x) (Y y))", edits, ["a", "b"])


def test_project_checks_its_script_once(monkeypatch):
    calls = []
    check = E.check_script
    monkeypatch.setattr(E, "check_script", lambda edits: calls.append(1) or check(edits))
    tree = T.bracket_tokens("(S (DT a) (NN cat) (VB sat))")
    script = E.EditScript((red(3, "the"), sub(1, "dog", "cat")))
    project(tree, script, ["a", "dog", "sat", "the"])
    assert len(calls) == 1


def test_malformed_script_is_an_error():
    tree = T.bracket_tokens("(S (NP (NN x)) (VP (VB b)))")
    script = E.EditScript((E.Edit(E.SUB, 0, 2, ("a", "b"), ("x",)),))
    with pytest.raises(ValueError, match="bad SUB shape at 0"):
        project(tree, script, ["a", "b"])


def test_target_tree_with_pseudo_nodes_is_an_error():
    tree = T.bracket_tokens("(S (NP (SUB (DT a))) (NN cat))")
    with pytest.raises(ValueError, match="SUB"):
        project(tree, E.EditScript(), ["a", "cat"])


def test_empty_source_with_script_is_an_error():
    tree = T.bracket_tokens("(S (NN cat))")
    with pytest.raises(ValueError,
                       match="empty source sentence with a non-empty edit script"):
        project(tree, E.make_script([miss(0, ["cat"])]), [])


def test_bad_placement_rejected():
    tree = T.bracket_tokens("(S (NN cat))")
    with pytest.raises(ValueError):
        project(tree, E.EditScript(), ["cat"], placement="inside")


def test_strip_pseudo_no_op_without_pseudo():
    text = "(S (NP (DT a) (NN cat)))"
    assert strip_pseudo(T.bracket_tokens(text)) == text


def test_strip_pseudo_removes_red_with_word():
    tree = T.bracket_tokens("(S (NP (DT a) (RED the) (NN cat)))")
    assert strip_pseudo(tree) == "(S (NP (DT a) (NN cat)))"


def test_strip_pseudo_unwraps_unary_pseudo():
    assert strip_pseudo(T.bracket_tokens("(NN (SUB cat))")) == "(NN cat)"
    assert strip_pseudo(T.bracket_tokens("(NN (MISS (SUB cat)))")) == "(NN cat)"


def test_strip_pseudo_promotes_subword_children():
    tree = T.bracket_tokens("(NN (SUB ca @@t))")
    assert strip_pseudo(tree) == "(NN ca @@t)"


def test_strip_pseudo_on_everything_pseudo_raises():
    # Nothing left, a word at the root, two constituents at the root.
    for text in ["(RED x)", "(SUB x)", "(SUB (A x) (B y))", "(MISS (A (RED x)))"]:
        with pytest.raises(ValueError) as err:
            strip_pseudo(T.bracket_tokens(text))
        assert str(err.value) == \
            "stripping pseudo nodes did not leave a single rooted tree"
    assert strip_pseudo(T.bracket_tokens("(SUB (A x) (B (RED y)))")) == "(A x)"


# Words with brackets in them, written escaped, among the usual ones.
BRACKET_VOCAB = SRC_VOCAB[:20] + ["(", ")", "a(b", "c)d", "((x"]


def _random_trees_with_pseudo_nodes(rng, count):
    """``count`` random projected trees, each placement in turn, with unary
    chains and some words holding brackets; then a third as many random
    trees with SUB, RED and MISS anywhere, the root included."""
    trees = []
    while len(trees) < count:
        src = random_tokens(rng, rng.randint(1, 10), BRACKET_VOCAB)
        script = random_script(src, rng, BRACKET_VOCAB)
        tgt = E.apply_edits(src, script)
        if not tgt:
            continue
        placement = ("below", "above")[len(trees) % 2]
        target = T.bracket_tokens(T.serialize(random_tree(tgt, rng, unary_prob=0.3)))
        trees.append(T.parse_bracketed(
            project(target, script, src, placement=placement).source_tree))
    for _ in range(count // 3):
        tree = random_tree(random_tokens(rng, rng.randint(1, 6), BRACKET_VOCAB),
                           rng, unary_prob=0.3)
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, T.NonTerminal):
                if rng.random() < 0.2:
                    node.label = rng.choice(("SUB", "RED", "MISS"))
                stack.extend(node.children)
        trees.append(tree)
    return trees


def _random_segmentation(rng, words):
    seg = []
    for word in words:
        cut = rng.randint(0, len(word) - 1)
        seg.append([word[:cut], "@@" + word[cut:]] if cut else [word])
    return seg


def test_strip_pseudo_matches_the_oracle():
    checked = errors = 0
    for tree in _random_trees_with_pseudo_nodes(random.Random(71), 1_000):
        expected = strip_pseudo_oracle(tree)
        if not isinstance(expected, str):
            expected = T.serialize(expected)
        try:
            got = strip_pseudo(T.bracket_tokens(T.serialize(tree)))
        except ValueError as err:
            got = str(err)
            errors += 1
        assert got == expected, T.serialize(tree)
        checked += 1
    assert 0 < errors < checked


def test_strip_and_subword_commands_match_the_oracles(tmp_path, capsys):
    rng = random.Random(72)
    trees = _random_trees_with_pseudo_nodes(rng, 1_000)
    stripped = [strip_pseudo_oracle(tree) for tree in trees]
    kept = [tree for tree, out in zip(trees, stripped) if not isinstance(out, str)]
    rejected = [tree for tree, out in zip(trees, stripped) if isinstance(out, str)]
    tree_file = tmp_path / "t.trees"
    tree_file.write_text("".join(T.serialize(t) + "\n" for t in kept), encoding="utf-8")

    assert main(["strip", str(tree_file)]) == 0
    assert capsys.readouterr().out.splitlines() == \
        [T.serialize(out) for out in stripped if not isinstance(out, str)]

    one = tmp_path / "one.trees"
    for tree in rejected:
        one.write_text(T.serialize(tree) + "\n", encoding="utf-8")
        assert main(["strip", str(one)]) == 2
        assert capsys.readouterr().err == (
            f"error: {one}:line 1: stripping pseudo nodes did not leave a single "
            "rooted tree\n")

    segs = [_random_segmentation(rng, T.yield_tokens(t)) for t in kept]
    seg_file = tmp_path / "seg.tsv"
    seg_file.write_text("".join("\t".join(map(" ".join, seg)) + "\n" for seg in segs),
                        encoding="utf-8")
    assert main(["subword", str(tree_file), str(seg_file)]) == 0
    assert capsys.readouterr().out.splitlines() == \
        [T.serialize(subword_tree_oracle(t, seg)) for t, seg in zip(kept, segs)]
    assert rejected and len(kept) > 1_000


def _random_projection_cases(rng, count):
    """``count`` random ``(target tree, script, source)`` triples over words
    holding brackets, with unary chains: 3% of the targets hold a pseudo
    label, 10% have a yield the script does not give, and a few have every
    source word RED, an empty source or a script longer than the source."""
    vocab = BRACKET_VOCAB + ["x(y", "SUB"]
    for _ in range(count):
        src = random_tokens(rng, rng.randint(1, 10), vocab)
        script = random_script(src, rng, vocab, force_empty_prob=0.05)
        roll = rng.random()
        if roll < 0.02:  # no source word is kept
            script = E.make_script([red(i, w) for i, w in enumerate(src)] + [
                miss(rng.randint(0, len(src)), random_tokens(rng, 2, vocab))])
        tgt = E.apply_edits(src, script)
        if 0.02 <= roll < 0.12:  # a target yield the script does not give
            k = rng.randrange(len(tgt))
            broken = [tgt + ["w0"], tgt[:k] + ["(("] + tgt[k + 1:]]
            if len(tgt) > 1:
                broken.append(tgt[:k] + tgt[k + 1:])
            tgt = rng.choice(broken)
        tree = random_tree(tgt, rng, unary_prob=rng.choice((0.0, 0.3, 0.6)))
        if rng.random() < 0.03:
            stack, phrases = [tree], []
            while stack:
                node = stack.pop()
                if isinstance(node, T.NonTerminal):
                    phrases.append(node)
                    stack.extend(node.children)
            rng.choice(phrases).label = rng.choice(("SUB", "RED", "MISS"))
        roll = rng.random()
        if roll < 0.01:
            src = []
        elif roll < 0.02:
            src = src[:-1]
        yield tree, script, src


def _outcome(fn, *args):
    """``fn(*args)`` as ``(bracket text, inserted)``, or its error's
    ``(type, text)``."""
    try:
        result = fn(*args)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)
    if isinstance(result, ProjectionResult):
        return result.source_tree, result.inserted
    return result


def test_projection_matches_the_oracle():
    # Each case under both placements: the text and ``inserted``, or the
    # error's type and text, of the copy-and-edit oracle.
    errors = []
    for tree, script, src in _random_projection_cases(random.Random(81), 20_000):
        tokens = T.bracket_tokens(T.serialize(tree))
        for placement in ("below", "above"):
            expected = _outcome(project_oracle, tree, script, src, placement)
            got = _outcome(project, tokens, script, src, placement)
            assert got == expected, (T.serialize(tree), script, src, placement)
            if isinstance(got[0], type):
                errors.append(got[1])
    for part in ("already contains", "out of range", "yield does not match",
                 "empty source", "no source word", "emptied the whole tree"):
        assert any(part in message for message in errors), part


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
        result = project(T.bracket_tokens(T.serialize(target_tree)), script, src,
                         placement=placement)
        projected = T.parse_bracketed(result.source_tree)

        assert T.yield_tokens(projected) == src
        counts = {"SUB": 0, "RED": 0, "MISS": 0}
        for label, _ in result.inserted:
            counts[label] += 1
        assert counts == category_counts(script)
        in_tree = {"SUB": 0, "RED": 0, "MISS": 0}
        stack = [projected]
        while stack:
            node = stack.pop()
            if isinstance(node, T.NonTerminal):
                if node.label in in_tree:
                    in_tree[node.label] += 1
                stack.extend(node.children)
        assert in_tree == counts

        if not script:
            assert projected == target_tree

        stripped = T.parse_bracketed(strip_pseudo(T.bracket_tokens(result.source_tree)))
        red_words = {e.i for e in script if e.category == E.RED}
        assert T.yield_tokens(stripped) == \
            [w for i, w in enumerate(src) if i not in red_words]
        nts_p, terms_p = _count_nodes(projected)
        nts_s, terms_s = _count_nodes(stripped)
        assert nts_s == nts_p - sum(counts.values())
        assert terms_s == terms_p - counts["RED"]


# SHA-256 of the serialized trees and ``inserted`` lists of 1,000 seeded
# projections per placement.  The other projection tests check yields and
# counts; these pin every tree shape and anchor.
PROJECTION_DIGESTS = {
    "below": "eef0bc6b0343b7bf446b00577624c99065b473c091c827d251b755e445f01c5f",
    "above": "772412449ee32d8412bc6ece6c1daafb5e038f9c2c338ec91e2afb4a9fb414b3",
}


@pytest.mark.parametrize("placement", ["below", "above"])
def test_projections_match_their_recorded_digest(placement):
    rng = random.Random(61)
    digest = hashlib.sha256()
    for _ in range(1000):
        src = random_tokens(rng, rng.randint(1, 12), SRC_VOCAB)
        script = random_script(src, rng, SRC_VOCAB, force_empty_prob=0.05)
        target_tree = T.bracket_tokens(T.serialize(
            random_tree(E.apply_edits(src, script), rng)))
        result = project(target_tree, script, src, placement=placement)
        digest.update(f"{result.source_tree}\t{result.inserted}\n"
                      .encode("utf-8"))
    assert digest.hexdigest() == PROJECTION_DIGESTS[placement]


def test_sub_only_scripts_strip_back_to_target():
    rng = random.Random(31)
    for _ in range(100):
        src = random_tokens(rng, rng.randint(2, 10), SRC_VOCAB)
        script = random_script(src, rng, SRC_VOCAB,
                               sub_prob=0.4, red_prob=0.0, miss_prob=0.0)
        tgt = E.apply_edits(src, script)
        target_tree = random_tree(tgt, rng)
        projected = project(T.bracket_tokens(T.serialize(target_tree)), script,
                            src).source_tree
        stripped = T.parse_bracketed(strip_pseudo(T.bracket_tokens(projected)))
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
