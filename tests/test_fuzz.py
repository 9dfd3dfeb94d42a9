"""Property-based fuzzing of the command-line contract.

Every subcommand runs in process on input files of arbitrary bytes: each
file is either a well-formed example of its format with random splices,
or free bytes biased toward the characters the formats are made of.
``ensemble-train`` also draws its numeric training flags and threshold,
``ensemble-apply`` its threshold and ``gcn-check`` its width, depth and
seed, each left at its default or set to a value from a small set of
edge cases.  ``project`` draws ``--pseudo-placement`` from ``below``,
``above`` and the unknown ``inside``; ``subword`` draws
``--marker-style`` from ``prefix``, ``suffix`` and the unknown ``infix``,
and ``--marker`` from ``@@``, the empty marker, ``(`` and ``-LRB-``.  A
drawn flag is one ``--flag=value`` argument, so a value such as ``-inf``
reaches the flag's type instead of reading as an option.  In half of these commands' examples the files are the
well-formed seeds, so the flags reach the computation.  Whatever the
bytes and flags, the command exits 0, or 2 with an ``error:`` line on
stderr (argparse rejecting a flag value exits 2 the same way); only
``gcn-check`` may exit 1, when a self-check fails.  No other exception
may escape ``main``.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from gecsyntax.cli import main

_PIECES = [
    b"(", b")", b"\t", b"\r", b"\n", b"\r\n", b" ", b"|||", b"S ", b"A ",
    b"\xff", b"\xc3", b"{", b"}", b"[", b"]", b":", b",", b'"', b"0", b"1",
    b"-1", b"1e999", b"NaN", b"a", b"SUB", b"RED", b"MISS", b"@@",
    b'"weights"', b'"bias"',
]
_CHUNK = st.one_of(st.sampled_from(_PIECES), st.binary(max_size=3),
                   st.text(max_size=3).map(str.encode))
_FREE = st.lists(_CHUNK, max_size=30).map(b"".join)

_SRC = b"a cat sat\nthe dog ran\n"
_HYP1 = b"a dog sat\nthe dog ran fast\n"
_HYP2 = b"a dog sat\nthe dog ran\n"
_GOLD = b"S a cat sat\nA 1 2|||SUB|||dog\n\nS the dog ran\nA 3 3|||MISS|||fast\n"
_MODEL = b'{"weights": [1, 1, 0, 0, 0, 0], "bias": -1.5, "threshold": 0.5}'
_TREES = b"(S (NP (DT a) (NN cat)) (VP (VB sat)))\n(S (DT the) (NN dog) (VB ran))\n"
_PAIRS = b"a dog sat\ta cat sat\nthe the dog ran\tthe dog ran\n"

# Per command: argv with input files as indices, and a well-formed seed
# for each file.  Flags keep the numeric commands small and fast.
_COMMANDS = {
    "align": (["align", 0], [_PAIRS]),
    "align-m2": (["align", 0, "--format", "m2"], [_PAIRS]),
    "project": (["project", 0, 1], [_PAIRS, _TREES]),
    "strip": (["strip", 0], [b"(S (NP (SUB (DT a)) (RED b)) (MISS (NN c)))\n"]),
    "subword": (["subword", 0, 1],
                [b"(S (VBG playing) (NN cat))\n", b"play @@ing\tcat\n"]),
    "gcn-check": (["gcn-check", 0], [_TREES]),
    "ensemble-train": (["ensemble-train", 0, 1, 2, 3],
                       [_SRC, _HYP1, _HYP2, _GOLD]),
    "ensemble-apply": (["ensemble-apply", 0, 1, 2, 3],
                       [_SRC, _HYP1, _HYP2, _MODEL]),
    "score": (["score", 0, 1], [_GOLD, _GOLD]),
}


# Flags drawn per command, and the values each draws from; an undrawn
# flag keeps its default.  gcn-check's one large width is refused
# by the allocator at once, and it comes first so that the derandomized
# draws reach it; no large depth is drawn, as the layers are allocated
# and run one by one.  Only the seed also draws an integer beyond float
# range, which the parser refuses: a depth or epoch count of that size,
# were it let through, would run for ever.
_EDGE_NUMBERS = ["inf", "-inf", "nan", "0", "-1", "1e12", "0.5", "5"]
_SMALL_INTS = ["0", "-3", "1", "4"]
_FLAGS = {"ensemble-train": {flag: _EDGE_NUMBERS for flag in
                             ("--lr", "--l2", "--epochs", "--threshold")},
          "ensemble-apply": {"--threshold": _EDGE_NUMBERS},
          "project": {"--pseudo-placement": ["below", "above", "inside"]},
          "subword": {"--marker-style": ["prefix", "suffix", "infix"],
                      "--marker": ["@@", "", "(", "-LRB-"]},
          "gcn-check": {"--d": ["1000000", *_SMALL_INTS],
                        "--layers": _SMALL_INTS, "--seed": [*_SMALL_INTS, "9" * 400]}}


def _spliced(seed: bytes):
    """The seed with up to three random chunks spliced in, each one
    replacing up to four bytes."""
    def apply(splices):
        data = seed
        for at, cut, chunk in splices:
            at = min(at, len(data))
            data = data[:at] + chunk + data[at + cut:]
        return data
    splice = st.tuples(st.integers(0, len(seed)), st.integers(0, 4), _CHUNK)
    return st.lists(splice, max_size=3).map(apply)


@pytest.mark.parametrize("name", _COMMANDS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_input_bytes_keep_the_exit_contract(tmp_path_factory, name, data):
    template, seeds = _COMMANDS[name]
    work = tmp_path_factory.getbasetemp()
    flags = _FLAGS.get(name, {})
    intact = bool(flags) and data.draw(st.booleans())
    paths = []
    for index, seed in enumerate(seeds):
        paths.append(work / f"input{index}")
        paths[-1].write_bytes(
            seed if intact else data.draw(st.one_of(_spliced(seed), _FREE)))
    argv = [str(paths[a]) if isinstance(a, int) else a for a in template]
    for flag, values in flags.items():
        value = data.draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv.append(f"{flag}={value}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected a flag value
            code = exc.code
    allowed = {0, 1, 2} if name == "gcn-check" else {0, 2}
    assert code in allowed, stderr.getvalue()
    if code == 2:
        assert "error: " in stderr.getvalue()
