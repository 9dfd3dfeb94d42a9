"""
Projecting a corrected sentence's tree onto its ungrammatical source
====================================================================

Start from a (source, corrected) sentence pair and the constituency tree
of the corrected side, extract the word-level edits, and rewrite the tree
so it spans the source sentence with SUB/RED/MISS pseudo nodes marking
each error.  The rewrites take the tree's bracket tokens and give bracket
text.
"""

from gecsyntax import align, bracket_tokens, project, strip_pseudo

source = "I has a the cat".split()
corrected = "I have a cat".split()
corrected_tree = bracket_tokens(
    "(S (PRP I) (VP (VBP have) (NP (DT a) (NN cat))))")

# One substituted word (has -> have) and one redundant word (the).
script = align(source, corrected)
for edit in script:
    print(edit.category, f"[{edit.i},{edit.j})",
          list(edit.src_tokens), "->", list(edit.tgt_tokens))

# The projected tree spans the source sentence; the correct part of the
# structure is untouched.
result = project(corrected_tree, script, source)
print("\nprojected:", result.source_tree)
print("inserted pseudo nodes:", result.inserted)

# Placement is configurable: pseudo nodes can sit above the POS tag
# instead of directly above the word.
above = project(corrected_tree, script, source, placement="above")
print("above POS:", above.source_tree)

# Removing the pseudo nodes again (the scheme ablation) also drops the
# redundant word the RED node dominates.
print("stripped: ", strip_pseudo(bracket_tokens(result.source_tree)))

# Missing words collapse into a single MISS node on the right neighbour.
source2 = "cat sat".split()
corrected2 = "the big cat sat".split()
tree2 = bracket_tokens("(S (NP (DT the) (JJ big) (NN cat)) (VP (VBD sat)))")
result2 = project(tree2, align(source2, corrected2), source2)
print("\nmissing words:", result2.source_tree)
