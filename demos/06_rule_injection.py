"""Inject a soft logic rule into embedding training.

The countries KG ships the chain rule

    located_in(x, y) & part_of(y, z)  =>  in_continent(x, z)   (conf 0.95)

and the held-out test triples are exactly conclusions of it. Grounding the
rule against train yields unlabeled conclusions; during training each step
first predicts soft labels for them from the current model, then fits
cross-entropy against those labels alongside the observed triples.
"""

import os

from kgembed import TrainConfig, ground_rules, load_kg, load_rules, predict_soft_labels
from kgembed.rules import unlabeled_conclusions
from kgembed.train import final_report, train

DATA = os.path.join(os.path.dirname(__file__), "data", "countries")
vocab, kg = load_kg(DATA)
rules = load_rules(os.path.join(DATA, "rules.txt"), vocab)
groundings = ground_rules(rules, kg)  # one table of arrays, one row per grounding

print(f"{len(groundings)} groundings; conclusions not yet in train:")
for h, r, t in unlabeled_conclusions(groundings).tolist():
    print(f"  ({vocab.id_to_entity[h]}, {vocab.id_to_relation[r]}, {vocab.id_to_entity[t]})")


def run(rule_weight):
    config = TrainConfig(
        model="complex",
        dim=16,
        lr=0.05,
        optimizer="adam",
        loss="bce",
        sampler="uniform",
        n_neg=4,
        batch_size=16,
        max_epochs=150,
        check_per_epoch=50,
        patience=10,
        seed=3,
        rule_file="in-memory",
        rule_weight=rule_weight,
    )
    result = train(config, kg, groundings=groundings)
    return result, final_report(result.best.params, kg, split="test")


plain, plain_report = run(rule_weight=0.0)
ruled, ruled_report = run(rule_weight=0.5)

print(f"\ntest MRR without rule guidance (C=0)  : {plain_report.mrr:.3f}")
print(f"test MRR with rule guidance (C=0.5)   : {ruled_report.mrr:.3f}")

soft = predict_soft_labels(ruled.best.params, groundings, 0.5)
print("\nsoft labels under the trained rule-injected model:")
for (h, r, t), label in zip(soft.triples.tolist(), soft.labels):
    print(f"  ({vocab.id_to_entity[h]}, {vocab.id_to_relation[r]}, {vocab.id_to_entity[t]}) -> {label:.2f}")
