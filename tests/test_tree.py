import random

import pytest
from hypothesis import given, settings, strategies as st

from gecsyntax import tree as T
from gecsyntax.cli import main
from gecsyntax.errors import FormatError

from tests.helpers import SRC_VOCAB, bracket_error_oracle, random_tokens, random_tree


def test_parse_simple():
    tree = T.parse_bracketed("(S (NP (DT the) (NN cat)))")
    assert T.yield_tokens(tree) == ["the", "cat"]
    assert tree.label == "S"


def test_parse_single_nonterminal_round_trip():
    text = "(X a)"
    assert T.serialize(T.parse_bracketed(text)) == text


def test_serialize_terminal_under_top():
    assert T.serialize(T.parse_bracketed("(TOP w)")) == "(TOP w)"


def test_whitespace_normalization():
    tree = T.parse_bracketed("  (S   (NP (DT the)\t(NN cat)))  ")
    assert T.serialize(tree) == "(S (NP (DT the) (NN cat)))"


def test_pseudo_label_survives_round_trip():
    text = "(S (NP (DT a) (NN (SUB cat))))"
    assert T.serialize(T.parse_bracketed(text)) == text


# Every malformed bracket text and the message it is rejected with; the
# parser, ``strip`` and ``subword`` all give this one message.
MALFORMED = [
    ("(S (NP (DT the)", "unbalanced parentheses"),
    ("(S (NP (DT the) (NN cat))))", "trailing material after the tree"),
    ("()", "empty constituent '()'"),
    ("(S)", "non-terminal 'S' has no children"),
    ("", "empty input, expected a bracketed tree"),
    ("   ", "empty input, expected a bracketed tree"),
    ("(S (NP a)) trailing", "trailing material after the tree"),
    ("bare", "expected '(', got 'bare'"),
    ("(", "unbalanced parentheses"),
    ("( (S x))", "missing constituent label"),
    ("(S (X))", "non-terminal 'X' has no children"),
    ("(S x) (T y)", "trailing material after the tree"),
]


@pytest.mark.parametrize("bad, message", MALFORMED, ids=[bad for bad, _ in MALFORMED])
def test_parse_errors(bad, message):
    with pytest.raises(FormatError) as err:
        T.parse_bracketed(bad)
    assert str(err.value) == message


@pytest.mark.parametrize("command", ["strip", "subword"])
@pytest.mark.parametrize("bad, message", MALFORMED, ids=[bad for bad, _ in MALFORMED])
def test_tree_commands_reject_malformed_brackets_with_the_same_line(
        tmp_path, monkeypatch, capsys, command, bad, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.trees").write_text(bad + "\n", encoding="utf-8")
    (tmp_path / "seg.tsv").write_text("x\n", encoding="utf-8")
    argv = ["strip", "t.trees"] if command == "strip" else ["subword", "t.trees", "seg.tsv"]
    if not bad.strip():
        message = "blank line in tree file"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: t.trees:line 1: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["strip", "subword"])
def test_tree_commands_name_a_blank_line(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.trees").write_text("(S (X x))\n\n", encoding="utf-8")
    (tmp_path / "seg.tsv").write_text("x\nx\n", encoding="utf-8")
    argv = ["strip", "t.trees"] if command == "strip" else ["subword", "t.trees", "seg.tsv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: t.trees:line 2: blank line in tree file\n"
    assert captured.out == "(S (X x))\n"


def test_bracket_tokens_escaped():
    tree = T.NonTerminal("S", [T.NonTerminal("X", [T.Terminal("(")]),
                               T.NonTerminal("Y", [T.Terminal(")")])])
    text = T.serialize(tree)
    assert "-LRB-" in text and "-RRB-" in text
    again = T.parse_bracketed(text)
    assert T.yield_tokens(again) == ["(", ")"]
    assert T.serialize(again) == text


def test_unary_chains_preserved():
    text = "(S (NP (NP (NN cat))))"
    assert T.serialize(T.parse_bracketed(text)) == text


def test_deep_nesting_needs_no_recursion():
    depth = 100_000
    tree = T.parse_bracketed("(S " * depth + "(X w)" + ")" * depth)
    assert T.yield_tokens(tree) == ["w"]


def test_read_trees_rejects_blank_lines():
    with pytest.raises(FormatError) as err:
        list(T.read_trees(["(S (X a))", "", "(S (X b))"]))
    assert err.value.lineno == 2


def test_round_trip_random_trees():
    rng = random.Random(7)
    for _ in range(200):
        tokens = random_tokens(rng, rng.randint(1, 10), SRC_VOCAB)
        tree = random_tree(tokens, rng)
        text = T.serialize(tree)
        again = T.parse_bracketed(text)
        assert again == tree
        assert T.serialize(again) == text
        assert T.yield_tokens(again) == tokens


@st.composite
def bracketed_trees(draw, max_tokens=6):
    label = st.text(alphabet="ABCDES", min_size=1, max_size=3)
    token = st.text(alphabet="abcxyz()", min_size=1, max_size=4)
    tokens = draw(st.lists(token, min_size=1, max_size=max_tokens))

    def build(lo, hi):
        if hi - lo == 1 and not draw(st.booleans()):
            return T.NonTerminal(draw(label), [T.Terminal(tokens[lo])])
        if hi - lo == 1:
            return T.NonTerminal(draw(label), [build(lo, hi)])
        width = draw(st.integers(min_value=2, max_value=min(3, hi - lo)))
        cuts = sorted(draw(st.lists(st.integers(lo + 1, hi - 1),
                                    min_size=width - 1, max_size=width - 1,
                                    unique=True)))
        bounds = [lo, *cuts, hi]
        children = [build(bounds[i], bounds[i + 1])
                    for i in range(len(bounds) - 1)]
        return T.NonTerminal(draw(label), children)

    return build(0, len(tokens))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(bracketed_trees())
def test_parse_serialize_identity_property(tree):
    assert T.parse_bracketed(T.serialize(tree)) == tree


@settings(max_examples=120, deadline=None, derandomize=True)
@given(bracketed_trees(), st.data())
def test_bracket_text_of_any_spacing_is_the_serialized_text(tree, data):
    # Any whitespace between tokens, "(" and its label included.
    space = st.text(alphabet=" \t\u00a0", min_size=1, max_size=2)
    text = T.serialize(tree).replace(" ", "  ")
    text = "".join(data.draw(space) if ch == " " else ch for ch in text)
    text = text.replace("(", "(" + data.draw(st.sampled_from(["", " ", "\t"])))
    assert T.serialize(T.bracket_tokens(text)) == T.serialize(tree)
    assert T.parse_bracketed(text) == tree
    assert T.parse_bracketed(T.bracket_tokens(text)) == tree


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.text(alphabet="()( ) ab\t", max_size=14))
def test_bracket_tokens_rejects_what_the_oracle_rejects(text):
    expected = bracket_error_oracle(text)
    try:
        T.bracket_tokens(text)
    except FormatError as err:
        assert str(err) == expected
    else:
        assert expected is None


def test_the_oracle_knows_every_pinned_message():
    for bad, message in MALFORMED:
        assert bracket_error_oracle(bad) == message


def test_deep_trees_compare_and_print_without_recursion():
    depth = 100_000
    text = "(S " * depth + "(X w)" + ")" * depth
    tree = T.parse_bracketed(text)
    assert tree == T.parse_bracketed(text)
    assert tree != T.parse_bracketed(text.replace("(X w)", "(X v)"))
    assert tree != T.parse_bracketed(text.replace("(X w)", "(Y w)"))
    assert repr(tree) == f"NonTerminal({text!r})"
