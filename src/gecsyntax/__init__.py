"""Error-aware constituency trees and syntax kernels for GEC.

The toolkit builds constituency trees for ungrammatical sentences by
projecting target-side trees through word-level edit scripts, converts
them to subword level, encodes them with a reference graph-convolution
stack, combines two syntax memories by dual cross-attention, ensembles
edits from multiple correction systems, and scores corrections with
edit-level P/R/F0.5.

Every public name is imported from its defining module on first use
(PEP 562), so ``import gecsyntax`` loads none of them, and a program
loads only the modules whose names it uses: one that needs no graph,
GCN or attention name never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# Every public name, by defining module.
_LAZY = {name: module for module, names in (
    ("tree", ("NonTerminal", "Terminal", "PSEUDO_LABELS", "bracket_tokens",
              "parse_bracketed", "serialize", "yield_tokens")),
    ("edits", ("Edit", "EditScript", "align", "apply_edits", "make_script")),
    ("projection", ("ProjectionResult", "project", "strip_pseudo")),
    ("subword", ("to_subword_tree",)),
    ("graph", ("SyntaxGraph", "build_graph", "build_graph_dep")),
    ("gcn", ("GcnStack", "GcnLayerParams", "init_stack", "gcn_layer", "gcn_encode",
             "fuse")),
    ("attention", ("AttentionParams", "cross_attention", "dual_combine")),
    ("ensemble", ("EditCandidate", "LogRegModel", "gather", "train",
                  "select_and_apply")),
    ("scoring", ("Scores", "match_edits", "f_beta", "corpus_score")),
) for name in names}

__all__ = [*_LAZY]


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
