"""Error-aware constituency trees and syntax kernels for GEC.

The toolkit builds constituency trees for ungrammatical sentences by
projecting target-side trees through word-level edit scripts, converts
them to subword level, encodes them with a reference graph-convolution
stack, combines two syntax memories by dual cross-attention, ensembles
edits from multiple correction systems, and scores corrections with
edit-level P/R/F0.5.
"""

from .tree import (
    NonTerminal,
    PSEUDO_LABELS,
    Terminal,
    parse_bracketed,
    serialize,
    validate,
    yield_tokens,
)
from .edits import Edit, EditScript, align, apply_edits, make_script
from .projection import ProjectionResult, build_training_trees, project, strip_pseudo
from .subword import to_subword_tree
from .graph import SyntaxGraph, build_graph, build_graph_dep
from .gcn import (
    GcnLayerParams,
    GcnStack,
    fuse,
    gcn_encode,
    gcn_layer,
    init_stack,
)
from .attention import AttentionParams, cross_attention, dual_combine
from .ensemble import EditCandidate, LogRegModel, gather, select_and_apply, train
from .scoring import Scores, corpus_score, f_beta, match_edits

__version__ = "0.1.0"

__all__ = [
    "NonTerminal", "Terminal", "PSEUDO_LABELS", "parse_bracketed", "serialize",
    "validate", "yield_tokens",
    "Edit", "EditScript", "align", "apply_edits", "make_script",
    "ProjectionResult", "project", "strip_pseudo", "build_training_trees",
    "to_subword_tree",
    "SyntaxGraph", "build_graph", "build_graph_dep",
    "GcnStack", "GcnLayerParams", "init_stack",
    "gcn_layer", "gcn_encode", "fuse",
    "AttentionParams", "cross_attention", "dual_combine",
    "EditCandidate", "LogRegModel", "gather", "train", "select_and_apply",
    "Scores", "match_edits", "f_beta", "corpus_score",
]
