#!/usr/bin/env python3
"""TransE on a toy knowledge graph: relations as vector translations.

The score of (h, r, t) is ||h + r - t||: zero means the relation maps the
head exactly onto the tail. Training pushes true triples below corrupted
ones by a margin, keeping entities on the unit sphere. Link prediction then
ranks every entity as a candidate head/tail.
"""

import numpy as np

from text2triple.corpus import KnowledgeGraph, Triple
from text2triple.embeddings import (
    KgRows,
    TransEConfig,
    link_prediction_eval,
    negative_sample,
    transe_score,
    transe_train,
)
from text2triple.numerics import make_rng

# a 4-entity "rectangle": two relations, each an exact translation
kg = KnowledgeGraph(frozenset({
    Triple("a", "r1", "b"), Triple("c", "r1", "d"),
    Triple("a", "r2", "c"), Triple("b", "r2", "d"),
}))

print("== filtered negative sampling ==")
# TransE samples on integer table rows, the rows of the KG's own vocab
rows = KgRows.of(kg)
ents = rows.vocab.entities
batch = rows.ids[[0] * 4]  # (a, r1, b), the first triple in sorted order, four times
for h, t in negative_sample(batch, rows, make_rng(1)).tolist():
    neg = Triple(ents[h], "r1", ents[t])
    print(f"  corruption: {neg.subject} {neg.predicate} {neg.object} "
          f"(in KG: {neg in kg.triples})")

print("\n== training ==")
config = TransEConfig(dim=8, margin=1.0, lr=0.05, epochs=200, seed=0)
emb = transe_train(kg, config)
norms = np.linalg.norm(emb.entity_table, axis=1)
print(f"entity norms after training: {np.round(norms, 6)} (unit sphere)")

print("\n== scores: true triples vs a corruption ==")
for tr in sorted(kg.triples):
    s = transe_score(emb.entity_vec(tr.subject), emb.relation_vec(tr.predicate),
                     emb.entity_vec(tr.object), emb.norm)
    print(f"  {tr.subject} {tr.predicate} {tr.object}: {s:.3f}")
bad = transe_score(emb.entity_vec("a"), emb.relation_vec("r1"),
                   emb.entity_vec("c"), emb.norm)
print(f"  a r1 c (false): {bad:.3f}")

print("\n== link prediction over all entities ==")
mean_rank, hits1 = link_prediction_eval(emb, sorted(kg.triples))
print(f"mean rank {mean_rank:.2f}, hits@1 {hits1:.2f}")
print("these vectors later initialize the decoder's embedding table.")
