"""Seven scoring functions under one convention: higher score = more plausible.

Also shows the hand-derived gradients agreeing with finite differences,
which is how the library pins gradient correctness without an autodiff
dependency.
"""

import numpy as np

from kgembed import MODEL_KINDS, LossSpec, grad, init_params, score
from kgembed.sampling import NegBatch

n_entities, n_relations, dim = 20, 5, 8
triples = np.array([[0, 1, 2], [3, 0, 4], [5, 2, 6]])

print(f"{'model':10s} scores for three random triples")
for model in MODEL_KINDS:
    params = init_params(model, n_entities, n_relations, dim, seed=7)
    print(f"{model:10s} {np.round(score(params, triples), 3)}")

# a toy batch: one positive, two negatives that replace its tail (slot 1)
# with entities 7 and 9
params = init_params("rotate", n_entities, n_relations, dim, seed=7)
positives = triples[:1]
replaced = np.array([[7, 9]])
slot = np.array([[1, 1]], dtype=np.uint8)
batch = NegBatch(positives, replaced, slot, np.zeros((1, 2), bool))
negatives = batch.negatives  # as triples: [[[0, 1, 7], [0, 1, 9]]]

spec = LossSpec("self_adversarial", margin=2.0, adv_temperature=1.0)
loss, grads = grad(params, batch, spec)
print(f"\nself-adversarial loss on the toy batch: {loss:.4f}")
print(f"touched tables: { {name: len(ids) for name, (ids, _) in grads.items()} }")

# finite-difference cross-check of one gradient coordinate (the weights of
# the self-adversarial loss are held fixed, as in training)
from kgembed.losses import adversarial_weights, self_adversarial_loss  # noqa: E402

ids, rows = grads["ent"]
row, coord = int(ids[0]), 0
p64 = params.copy()
p64.tables = {k: v.astype(np.float64) for k, v in params.tables.items()}


def batch_loss(p):
    pos = score(p, positives)
    neg = score(p, negatives.reshape(-1, 3)).reshape(1, 2)
    w = adversarial_weights(
        score(params, negatives.reshape(-1, 3)).reshape(1, 2), spec.adv_temperature
    )
    return self_adversarial_loss(pos, neg, spec.margin, spec.adv_temperature, weights=w)


h = 1e-4
p64.tables["ent"][row, coord] += h
f_plus = batch_loss(p64)
p64.tables["ent"][row, coord] -= 2 * h
f_minus = batch_loss(p64)
numeric = (f_plus - f_minus) / (2 * h)
print(f"analytic d(loss)/d(ent[{row},{coord}]) = {rows[0][coord]:+.6e}")
print(f"numeric  central difference          = {numeric:+.6e}")
