"""Error-aware constituency trees and syntax kernels for GEC.

The toolkit builds constituency trees for ungrammatical sentences by
projecting target-side trees through word-level edit scripts, converts
them to subword level, encodes them with a reference graph-convolution
stack, combines two syntax memories by dual cross-attention, ensembles
edits from multiple correction systems, and scores corrections with
edit-level P/R/F0.5.

The tree, edit, projection, subword and scoring names are imported here.
The numpy-backed ones (graphs, the GCN, attention and the ensemble
selector) are imported on first use (PEP 562), so a program that needs
only the former never loads numpy.
"""

import importlib

from .tree import (
    NonTerminal,
    PSEUDO_LABELS,
    Terminal,
    bracket_tokens,
    parse_bracketed,
    serialize,
    yield_tokens,
)
from .edits import Edit, EditScript, align, apply_edits, make_script
from .projection import ProjectionResult, project, strip_pseudo
from .subword import to_subword_tree
from .scoring import Scores, corpus_score, f_beta, match_edits

__version__ = "0.1.0"

# The numpy-backed public names, by defining module.
_LAZY = {name: module for module, names in (
    ("graph", ("SyntaxGraph", "build_graph", "build_graph_dep")),
    ("gcn", ("GcnStack", "GcnLayerParams", "init_stack", "gcn_layer", "gcn_encode",
             "fuse")),
    ("attention", ("AttentionParams", "cross_attention", "dual_combine")),
    ("ensemble", ("EditCandidate", "LogRegModel", "gather", "train",
                  "select_and_apply")),
) for name in names}

__all__ = [
    "NonTerminal", "Terminal", "PSEUDO_LABELS", "bracket_tokens", "parse_bracketed",
    "serialize", "yield_tokens",
    "Edit", "EditScript", "align", "apply_edits", "make_script",
    "ProjectionResult", "project", "strip_pseudo",
    "to_subword_tree",
    "Scores", "match_edits", "f_beta", "corpus_score",
    *_LAZY,
]


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
