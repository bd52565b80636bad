"""Load a dataset directory, build vocabularies, and inspect the index.

The dataset layout is the usual one: train.txt / valid.txt / test.txt with
one tab-separated (head, relation, tail) triple per line.
"""

import os

import numpy as np

from kgembed import add_inverse_relations, load_kg
from kgembed.data import TAIL

DATA = os.path.join(os.path.dirname(__file__), "data", "countries")

vocab, kg = load_kg(DATA)

print(f"entities   : {kg.n_entities}")
print(f"relations  : {kg.n_relations}")
print(f"triples    : train={len(kg.train)} valid={len(kg.valid)} test={len(kg.test)}")

# ids are assigned by first occurrence, train first, so they are stable
print("\nfirst few entity ids:")
for label in list(vocab.entity_to_id)[:5]:
    print(f"  {label:10s} -> {vocab.entity_to_id[label]}")

# the train index holds the distinct train triples as sorted packed keys;
# samplers filter against it, and it lists the known completions of a
# batch of queries as (row, entity) pairs, each row's entities ascending
oslo = vocab.entity_to_id["oslo"]
located = vocab.relation_to_id["located_in"]
_, tails = kg.train_index.completions(np.array([[oslo, located, 0]]), TAIL)
print(f"\ntails of (oslo, located_in): {[vocab.id_to_entity[t] for t in tails]}")
print(f"is (oslo, located_in, {vocab.id_to_entity[tails[0]]}) in train: "
      f"{kg.in_train([[oslo, located, tails[0]]])[0]}")

# inverse augmentation doubles the relation space and mirrors every triple,
# so head prediction can be phrased as tail prediction over r-inverse
aug = add_inverse_relations(kg)
print(f"\nafter inverse augmentation: relations={aug.n_relations} train={len(aug.train)}")
