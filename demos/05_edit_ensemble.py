"""
Ensembling corrections from several systems
===========================================

Different correction systems propose different edits for the same
sentence.  Pooling the edits, scoring each with a trained selector, and
re-applying the survivors keeps the edits most systems agree on and
drops one-off guesses.
"""

from gecsyntax import align, gather, select_and_apply, train
from gecsyntax.ensemble import label_candidates, row_counts, select_edits

source = "I has a the cat".split()
gold = "I have a cat".split()

hypotheses = [
    "I have a cat".split(),        # a careful system
    "I have a the cat".split(),    # missed the redundant word
    "I has a dog".split(),         # overzealous
]

candidates = gather(source, hypotheses)
for cand in candidates:
    print(cand.edit.category, f"[{cand.edit.i},{cand.edit.j})",
          list(cand.edit.tgt_tokens), "votes", cand.votes)

# Label each pooled candidate against the gold edits and fit the selector.
labels = label_candidates(candidates, align(source, gold))
model = train(row_counts(zip(candidates, labels)), lr=0.5, epochs=400)
print("\nselector weights per feature:")
for name, weight in zip(model.feature_names, model.weights):
    print(f"  {name:14s} {weight:+.3f}")

kept = select_edits(candidates, model)
print("\nkept edits:", [(c.edit.category, c.edit.i) for c in kept])
print("corrected: ", " ".join(select_and_apply(source, candidates, model)))
print("gold:      ", " ".join(gold))
