"""
Word-level trees to subword-level trees
=======================================

Sequence models consume subword pieces, parsers produce word-level trees.
Attaching every piece of a word under the word's original head node
closes that gap, and pseudo error nodes carry over to all pieces.
"""

from gecsyntax import bracket_tokens, to_subword_tree

tree = bracket_tokens("(S (PRP I) (VP (VBP enjoy) (NP (NN playing))))")

# One piece list per word, continuation pieces marked with a leading @@.
segmentation = [["I"], ["en", "@@joy"], ["play", "@@ing"]]
print(to_subword_tree(tree, segmentation))

# A word marked as a substitution error keeps its SUB node above all of
# its pieces.
marked = bracket_tokens("(S (NP (DT a) (NN (SUB playgroud))))")
seg = [["a"], ["play", "@@groud"]]
print(to_subword_tree(marked, seg))

# Fairseq-style trailing markers work through the style switch.
tree2 = bracket_tokens("(S (VBG playing))")
print(to_subword_tree(tree2, [["play@@", "ing"]], style="suffix"))
