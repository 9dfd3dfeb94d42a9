"""Every line-based command on one 5,000-token sentence.

Each command runs in its own child process, which caps its own address
space with ``RLIMIT_AS`` before it imports the package: a command whose
time or memory grows with the square of the sentence length fails there,
and the test runner's limits stay as they are.
"""

import json
import random
import subprocess
import sys

import pytest

from gecsyntax import edits as E
from gecsyntax import tree as T

from tests.helpers import SRC_VOCAB, child_env, random_script, random_tokens

pytest.importorskip("resource")

LENGTH = 5_000
ADDRESS_SPACE = 512 * 2**20   # bytes; each command here maps under 200 MB

# Sets the limit in this child only, then runs one command.
_LIMITED_CHILD = """
import resource
import sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from gecsyntax.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _run(cwd, *argv):
    # One BLAS thread keeps the numpy commands' address space independent
    # of the machine's CPU count.
    env = {**child_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHILD, str(ADDRESS_SPACE), *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def _script(rng, src):
    return random_script(src, rng, SRC_VOCAB,
                         sub_prob=0.03, red_prob=0.02, miss_prob=0.02)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One sentence: source, gold correction, three systems (the last one
    outputs the gold correction) and the gold and first system's edits.

    The ``.m2`` files hold the planted edit scripts, so nothing is aligned
    in the test runner.
    """
    root = tmp_path_factory.mktemp("long")
    rng = random.Random(LENGTH)
    src = random_tokens(rng, LENGTH, SRC_VOCAB)
    scripts = [_script(rng, src) for _ in range(3)]
    gold, *hyps = (E.apply_edits(src, script) for script in scripts)
    hyps.append(gold)
    files = {"src": _write(root / "src.txt", " ".join(src) + "\n"),
             "pairs": _write(root / "pairs.tsv", f"{' '.join(src)}\t{' '.join(gold)}\n"),
             "hyps": [_write(root / f"h{i}.txt", " ".join(h) + "\n")
                      for i, h in enumerate(hyps)]}
    for name, script in (("gold", scripts[0]), ("hyp", scripts[1])):
        with open(root / f"{name}.m2", "w", encoding="utf-8") as fh:
            E.write_m2([(src, script)], fh)
        files[name] = root / f"{name}.m2"
    return root, src, gold, files


def test_align_on_a_long_line(corpus):
    root, src, gold, files = corpus
    _run(root, "align", files["pairs"], "--format", "m2", "-o", "out.m2")
    [(_, block_src, script)] = E.load_m2_file(str(root / "out.m2"))
    assert block_src == src
    assert E.apply_edits(src, script) == gold
    _run(root, "align", files["pairs"], "-o", "out.json")
    [line] = (root / "out.json").read_text(encoding="utf-8").splitlines()
    assert len(json.loads(line)["edits"]) == len(script)


@pytest.mark.parametrize("shape", ["flat", "deep"])
def test_project_on_a_long_line(corpus, shape):
    root, src, gold, files = corpus
    if shape == "flat":
        text = "(S " + " ".join(gold) + ")"
    else:   # right-branching, one level per word
        text = "".join(f"(S {w} " for w in gold[:-1]) + f"(S {gold[-1]}" + ")" * len(gold)
    trees = _write(root / f"{shape}.trees", text + "\n")
    _run(root, "project", files["pairs"], trees, "-o", f"{shape}.out",
         "--summary", f"{shape}.json")
    summary = json.loads((root / f"{shape}.json").read_text(encoding="utf-8"))
    assert (summary["pairs"], summary["skipped"]) == (1, 0)
    [line] = (root / f"{shape}.out").read_text(encoding="utf-8").splitlines()
    assert T.yield_tokens(T.parse_bracketed(line)) == src


def test_ensemble_train_and_apply_on_a_long_line(corpus):
    root, src, gold, files = corpus
    _run(root, "ensemble-train", files["src"], *files["hyps"], files["gold"],
         "-o", "model.json")
    assert "weights" in json.loads((root / "model.json").read_text(encoding="utf-8"))
    _run(root, "ensemble-apply", files["src"], *files["hyps"], "model.json",
         "-o", "out.txt")
    [line] = (root / "out.txt").read_text(encoding="utf-8").splitlines()
    assert line.split()


def test_score_on_a_long_line(corpus):
    root, src, gold, files = corpus
    _run(root, "score", files["hyp"], files["gold"], "-o", "score.json")
    result = json.loads((root / "score.json").read_text(encoding="utf-8"))
    [(_, _, hyp)] = E.load_m2_file(str(files["hyp"]))
    [(_, _, ref)] = E.load_m2_file(str(files["gold"]))
    assert result["tp"] + result["fp"] == len(hyp)
    assert result["tp"] + result["fn"] == len(ref)
