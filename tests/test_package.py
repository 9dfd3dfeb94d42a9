"""The package's public names, and the demos that import them."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import gecsyntax

from tests.helpers import child_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Each public name, by the module that defines it.
DEFINED_IN = {
    "tree": ("NonTerminal", "Terminal", "PSEUDO_LABELS", "bracket_tokens",
             "parse_bracketed", "serialize", "yield_tokens"),
    "edits": ("Edit", "EditScript", "align", "apply_edits", "make_script"),
    "projection": ("ProjectionResult", "project", "strip_pseudo"),
    "subword": ("to_subword_tree",),
    "graph": ("SyntaxGraph", "build_graph", "build_graph_dep"),
    "gcn": ("GcnStack", "GcnLayerParams", "init_stack", "gcn_layer", "gcn_encode",
            "fuse"),
    "attention": ("AttentionParams", "cross_attention", "dual_combine"),
    "ensemble": ("EditCandidate", "LogRegModel", "gather", "train",
                 "select_and_apply"),
    "scoring": ("Scores", "match_edits", "f_beta", "corpus_score"),
}


def test_every_public_name_is_its_definition(monkeypatch):
    # Drop the names already resolved, so the lazy lookup runs again.
    for name in gecsyntax._LAZY:
        monkeypatch.delitem(vars(gecsyntax), name, raising=False)
    listed = [name for names in DEFINED_IN.values() for name in names]
    assert sorted(listed) == sorted(gecsyntax.__all__)
    for module, names in DEFINED_IN.items():
        defining = importlib.import_module(f"gecsyntax.{module}")
        for name in names:
            assert getattr(gecsyntax, name) is getattr(defining, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gecsyntax import *", namespace)
    assert set(gecsyntax.__all__) <= set(namespace)


def test_unknown_name_is_attribute_error():
    assert getattr(gecsyntax, "no_such_name", None) is None
    with pytest.raises(AttributeError, match="no_such_name"):
        gecsyntax.no_such_name


def test_lazy_names_are_public():
    assert set(gecsyntax._LAZY) <= set(gecsyntax.__all__)


# A child process prints the gecsyntax modules loaded after the import,
# then after the first use of one name.
_IMPORT_CHILD = """
import sys
import gecsyntax
print(sorted(m for m in sys.modules if m.startswith("gecsyntax.")))
gecsyntax.align
print(sorted(m for m in sys.modules if m.startswith("gecsyntax.")))
"""


def test_a_public_name_loads_only_its_module_on_first_use():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # gecsyntax.edits imports gecsyntax.errors and gecsyntax.lines itself.
    assert proc.stdout.splitlines() == [
        "[]", "['gecsyntax.edits', 'gecsyntax.errors', 'gecsyntax.lines']"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_prints_what_it_says(capsys):
    # The first python block under "## Library tour" prints the lines of
    # its "# " comments.
    tour = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library tour")[1]
    code = tour.split("```python\n")[1].split("```")[0]
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    exec(code, {})
    assert expected and capsys.readouterr().out.splitlines() == expected
