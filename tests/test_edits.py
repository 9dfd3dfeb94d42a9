import io
import json
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gecsyntax import edits as E
from gecsyntax.errors import FormatError

from tests.helpers import (
    SRC_VOCAB, align_table_oracle, all_sequences, apply_edits_oracle,
    build_ensemble_corpus, child_env, enumerate_scripts, has_vmhwm, levenshtein_scalar,
    miss, random_pair, random_script, random_tokens, read_m2, red, script_cost,
    script_oracle, sub,
)


def test_align_identical_sequences():
    assert E.align(["a", "cat"], ["a", "cat"]) == ()
    assert E.align([], []) == ()


def test_align_single_substitution_unique_minimum():
    src, tgt = ["a", "cat", "sat"], ["a", "dog", "sat"]
    script = E.align(src, tgt)
    assert script == (sub(1, "cat", "dog"),)
    # every script of cost <= 2 that maps src to tgt; the minimum is unique
    candidates = enumerate_scripts(src, tgt, max_cost=2)
    minima = [s for s in candidates
              if script_cost(s) == min(script_cost(c) for c in candidates)]
    assert minima == [script]


def test_align_merges_adjacent_insertions():
    script = E.align(["cat", "sat"], ["the", "big", "cat", "sat"])
    assert script == (miss(0, ["the", "big"]),)


def test_align_prefers_keeping_early_source_tokens():
    script = E.align(["the", "the", "cat"], ["the", "cat"])
    assert script == (red(1, "the"),)


def test_align_decomposes_replacement_regions():
    # two source words against one target word: SUB then RED
    script = E.align(["x", "y"], ["q"])
    assert script == (sub(0, "x", "q"), red(1, "y"))
    # one source word against two target words: SUB then trailing MISS
    script = E.align(["x"], ["q", "r"])
    assert script == (sub(0, "x", "q"), miss(1, ["r"]))


def test_align_deterministic():
    src = ["a", "b", "a", "c", "b"]
    tgt = ["b", "a", "c", "c"]
    first = E.align(src, tgt)
    for _ in range(5):
        assert E.align(src, tgt) == first


def test_apply_empty_script():
    assert E.apply_edits(["a", "cat"], E.EditScript()) == ["a", "cat"]


def test_apply_single_deletion():
    script = E.make_script([red(1, "a")])
    assert E.apply_edits(["a", "a", "cat"], script) == ["a", "cat"]


def test_apply_edits_matches_position_walk_in_any_order():
    rng = random.Random(29)
    for _ in range(500):
        src = random_tokens(rng, rng.randint(1, 12), SRC_VOCAB)
        edits = list(random_script(src, rng, SRC_VOCAB))
        rng.shuffle(edits)
        want = apply_edits_oracle(src, edits)
        assert E.apply_edits(src, edits) == want
        assert E.apply_edits(src, E.EditScript(tuple(edits))) == want


@pytest.mark.parametrize("edits,message", [
    ([E.Edit(E.SUB, 0, 2, ("a", "b"), ("x",))], "bad SUB shape at 0"),
    ([E.Edit(E.RED, 0, 1, ("a",), ("x",))], "bad RED shape at 0"),
    ([E.Edit(E.MISS, 1, 1, (), ())], "bad MISS shape at 1"),
    ([E.Edit("XXX", 0, 1, ("a",), ())], "unknown category 'XXX'"),
    ([sub(-1, "a", "x")], r"span \[-1,0\) out of range"),
    ([sub(2, "x", "y")], r"span \[2,3\) out of range"),
    ([miss(1, ["x"]), miss(1, ["y"])], "two MISS edits at point 1"),
    ([red(1, "b"), sub(1, "b", "x")], "overlapping"),
], ids=["sub-two-words", "red-replacement", "miss-no-words", "unknown-category",
        "negative-start", "past-end", "two-miss-one-point", "overlap"])
def test_apply_edits_rejects_a_malformed_script(edits, message):
    with pytest.raises(ValueError, match=message):
        E.apply_edits(["a", "b"], E.EditScript(tuple(edits)))


def test_make_script_rejects_invalid():
    with pytest.raises(ValueError):
        E.make_script([miss(0, ["x"]), miss(0, ["y"])])
    with pytest.raises(ValueError):
        E.make_script([E.Edit(E.SUB, 0, 2, ("a", "b"), ("c",))])


def _random_edit_list(rng):
    """Edits over a short source, shuffled: a valid script, perhaps with
    a duplicate, an edit at a random place, an edit of random shape or one
    of an unknown category added."""
    n = rng.randint(1, 6)
    edits = []
    for i in range(n + 1):
        if rng.random() < 0.3:
            edits.append(miss(i, ["m"] * rng.randint(1, 2)))
        if i < n and rng.random() < 0.4:
            edits.append(rng.choice([sub(i, "w", "x"), red(i, "w")]))
    i = rng.randint(0, n)
    extra = rng.randrange(6)
    if extra == 1 and edits:
        edits.append(rng.choice(edits))
    elif extra == 2:
        edits.append(rng.choice([miss(i, ["y"]), sub(i, "w", "y"), red(i, "w")]))
    elif extra == 3:
        j = rng.randint(i - 1, i + 2)
        edits.append(E.Edit(rng.choice(E.CATEGORIES), i, j, ("w",) * max(j - i, 0),
                            ("y",) * rng.randint(0, 2)))
    elif extra == 4:
        edits.append(E.Edit("XXX", i, i + 1, ("w",), ()))
    rng.shuffle(edits)
    return edits


def test_make_script_accepts_exactly_the_pairwise_rule():
    rng = random.Random(37)
    valid = 0
    for _ in range(20_000):
        edits = _random_edit_list(rng)
        want = script_oracle(edits)
        if want is None:
            with pytest.raises(ValueError, match="invalid edit script"):
                E.make_script(edits)
        else:
            assert E.make_script(edits) == tuple(want)
            valid += 1
    assert 5_000 < valid < 15_000, valid


def test_make_script_orders_miss_before_sub():
    script = E.make_script([sub(1, "a", "b"), miss(1, ["x"])])
    assert [e.category for e in script] == [E.MISS, E.SUB]


def _is_plain_script(script):
    return (type(script) is tuple and all(type(e) is E.Edit for e in script)
            and [e.slot for e in script] == sorted(e.slot for e in script))


def test_every_constructor_gives_a_plain_tuple_in_slot_order(tmp_path):
    src, tgt = ["a", "x", "b", "c"], ["q", "a", "b", "r", "c", "s"]
    aligned = E.align(src, tgt)
    assert aligned and _is_plain_script(aligned)
    assert _is_plain_script(E.align(src, src)) and E.align(src, src) == ()
    made = E.make_script(reversed(aligned))
    assert made == aligned and _is_plain_script(made)
    block = ["S " + " ".join(src)] + [
        f"A {e.i} {e.j}|||{e.category}|||{' '.join(e.tgt_tokens)}" for e in aligned]
    parsed_src, parsed = E.parse_m2_block(1, block)
    assert parsed_src == src and parsed == aligned and _is_plain_script(parsed)
    m2 = tmp_path / "block.m2"
    m2.write_text("\n".join(block) + "\n", encoding="utf-8")
    ((lineno, read_src, read),) = E.load_m2_file(str(m2))
    assert (lineno, read_src, read) == (1, src, aligned) and _is_plain_script(read)


def test_m2_a_lines_out_of_slot_order_parse_to_the_ordered_script():
    ordered = ["S a b c", "A 0 0|||MISS|||x y", "A 0 1|||SUB|||q",
               "A 2 3|||RED|||", "A 3 3|||MISS|||z"]
    want = (miss(0, ["x", "y"]), sub(0, "a", "q"), red(2, "c"), miss(3, ["z"]))
    assert E.parse_m2_block(1, ordered) == (["a", "b", "c"], want)
    for a_lines in ([ordered[4], ordered[2], ordered[1], ordered[3]],
                    [ordered[2], ordered[1], ordered[4], ordered[3]]):
        assert E.parse_m2_block(1, [ordered[0], *a_lines]) == (["a", "b", "c"], want)
        assert list(read_m2([ordered[0], *a_lines])) == [(1, ["a", "b", "c"], want)]


def test_round_trip_random_pairs():
    rng = random.Random(11)
    for _ in range(500):
        src, tgt = random_pair(rng, SRC_VOCAB)
        script = E.align(src, tgt)
        assert E.apply_edits(src, script) == tgt


def test_cost_matches_scalar_oracle_random():
    rng = random.Random(13)
    vocab = ["a", "b", "c", "d"]
    for _ in range(400):
        src = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        tgt = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        if not src and not tgt:
            continue
        assert script_cost(E.align(src, tgt)) == levenshtein_scalar(src, tgt)


def _as_tuples(script):
    return [(e.category, e.i, e.j, e.src_tokens, e.tgt_tokens) for e in script]


def test_align_matches_table_oracle_on_every_short_pair():
    # Every pair up to length 5 over {a, b, c}: 132,496 pairs.
    seqs = [list(s) for s in all_sequences(max_len=5)]
    for src in seqs:
        for tgt in seqs:
            assert _as_tuples(E.align(src, tgt)) == align_table_oracle(src, tgt), \
                (src, tgt)


def test_align_matches_table_oracle_on_long_random_pairs():
    rng = random.Random(29)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(100):
        src = [rng.choice(vocab) for _ in range(rng.randint(0, 200))]
        if rng.random() < 0.5:
            tgt = [rng.choice(vocab) for _ in range(rng.randint(0, 200))]
        else:  # a lightly edited copy, so long matching stretches remain
            tgt = [w for w in src if rng.random() > 0.05]
            for _ in range(rng.randint(0, 10)):
                tgt.insert(rng.randint(0, len(tgt)), rng.choice(vocab))
        assert _as_tuples(E.align(src, tgt)) == align_table_oracle(src, tgt)


def test_align_matches_table_oracle_on_ensemble_corpus_pairs():
    # Every distinct (source, hypothesis) pair that ensemble.gather aligns in
    # a seeded corpus of 300 sentences and 6 systems, plus a system that
    # copies the source, passed as gather passes them: the source a list,
    # the hypothesis a tuple.
    sources, _, hyps = build_ensemble_corpus(seed=61, n_sentences=300)
    pairs = {(tuple(src), tuple(hyp[k]))
             for k, src in enumerate(sources) for hyp in [sources, *hyps]}
    shapes = Counter()
    for src, hyp in sorted(pairs):
        expected = align_table_oracle(src, hyp)
        assert _as_tuples(E.align(list(src), hyp)) == expected, (src, hyp)
        spans = [(i, j) for _, i, j, _, _ in expected]
        shapes["no edit"] += not spans
        shapes["several runs"] += any(b[0] > a[1] for a, b in zip(spans, spans[1:]))
        shapes["run at the end"] += bool(spans) and spans[-1][1] == len(src)
    # The pairs hold the shapes where the walk can go wrong.
    assert min(shapes.values()) >= 20 and len(shapes) == 3, shapes


# A child process aligns one seeded pair of 4,000-token lines and prints the
# seconds taken and the growth of its peak resident size in kB.
_LONG_LINE_CHILD = """
import random, time
from gecsyntax.edits import align, apply_edits

def peak_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))

rng = random.Random(4000)
vocab = [f"w{k}" for k in range(50)]
src = [rng.choice(vocab) for _ in range(4000)]
tgt = [rng.choice(vocab) for _ in range(4000)]
before = peak_kb()
start = time.perf_counter()
script = align(src, tgt)
seconds = time.perf_counter() - start
grown = peak_kb() - before
assert apply_edits(src, script) == tgt
print(seconds, grown)
"""


@pytest.mark.skipif(not has_vmhwm(), reason="needs VmHWM in /proc/self/status")
def test_align_long_lines_in_bounded_time_and_memory():
    proc = subprocess.run([sys.executable, "-c", _LONG_LINE_CHILD], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seconds, grown_kb = proc.stdout.split()
    assert int(grown_kb) < 50 * 1024
    assert float(seconds) < 0.5


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from("abc"), max_size=8),
       st.lists(st.sampled_from("abc"), max_size=8))
def test_round_trip_and_minimality_property(src, tgt):
    script = E.align(src, tgt)
    assert E.apply_edits(src, script) == tgt
    assert script_cost(script) == levenshtein_scalar(src, tgt)


def test_script_json_round_trip():
    script = E.align(["a", "x", "c"], ["a", "b", "c", "d"])
    data = json.loads(E.script_to_json(script))
    assert data == {"edits": [
        {"cat": e.category, "i": e.i, "j": e.j,
         "src": list(e.src_tokens), "tgt": list(e.tgt_tokens)}
        for e in script]}
    assert [entry["cat"] for entry in data["edits"]] == ["SUB", "MISS"]


def test_m2_round_trip():
    pairs = [
        (["a", "cat", "sat"], E.align(["a", "cat", "sat"], ["a", "dog", "sat"])),
        (["cat", "sat"], E.align(["cat", "sat"], ["the", "cat", "sat"])),
        (["fine"], E.EditScript()),
    ]
    buf = io.StringIO()
    E.write_m2(pairs, buf)
    parsed = list(read_m2(buf.getvalue().splitlines(True)))
    assert parsed == [(lineno, list(s), sc) for lineno, (s, sc) in zip((1, 4, 7), pairs)]


def test_m2_s_line_without_a_blank_line_starts_the_next_block():
    lines = ["S a b", "A 0 1|||SUB|||x", "S c", "A 0 1|||RED|||", "", "S d"]
    assert list(E.m2_blocks(lines)) == [
        (1, ["S a b", "A 0 1|||SUB|||x"]), (3, ["S c", "A 0 1|||RED|||"]), (6, ["S d"])]


@pytest.mark.parametrize("lines,lineno", [
    (["A 0 1|||SUB|||x"], 1),
    (["S a b", "A 0 1|||WHAT|||x"], 2),
    (["S a b", "A 0 9|||SUB|||x"], 2),
    (["S a b", "A zero one|||SUB|||x"], 2),
    (["S a b", "A 0 1|||SUB"], 2),
    (["S a b", "gibberish"], 2),
])
def test_m2_format_errors_carry_line_numbers(lines, lineno):
    with pytest.raises(FormatError) as err:
        list(read_m2(lines))
    assert err.value.lineno == lineno


def test_edit_identity():
    assert sub(1, "a", "b").identity() == (E.SUB, 1, 2, ("b",))
    assert red(3, "x").identity() == (E.RED, 3, 4, ())
    assert miss(2, ["x", "y"]).identity() == (E.MISS, 2, 2, ("x", "y"))


def test_edit_is_an_immutable_tuple_of_its_fields():
    edit = E.Edit(category=E.SUB, i=1, j=2, src_tokens=("a",), tgt_tokens=("b",))
    same = sub(1, "a", "b")
    assert edit == same == (E.SUB, 1, 2, ("a",), ("b",))
    assert hash(edit) == hash(same)
    assert len({edit, same}) == 1
    assert edit != sub(1, "a", "c") and edit != red(1, "a")
    for name in ("category", "i", "j", "src_tokens", "tgt_tokens", "slot", "other"):
        with pytest.raises(AttributeError):
            setattr(edit, name, None)
    assert edit == same

