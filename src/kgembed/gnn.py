"""RGCN entity encoder over sampled subgraphs, DistMult-decoded.

Two-layer basis-decomposition RGCN: per-relation weights are learned
combinations W_r = sum_b a[r, b] * V_b of shared bases. Layer update:

    out(i) = act( sum_{(j,r,i) in edges} edge_norm * (x_j @ W_r) + x_i @ W0 )

with ReLU on hidden layers and identity on the last. Message aggregation
follows the batch's canonical edge order, so forward passes are
run-to-run deterministic. Backward passes are hand-derived like the
conventional models and checked against finite differences.

The decoder is the conventional DistMult model over the encoded node
rows: training takes its loss and gradient from :func:`models.grad`, and
ranking uses DistMult's candidate kernel, so only the encoder lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import models
from .evaluate import CKGEScorer
from .losses import LossSpec
from .sampling import GraphBatch


@dataclass
class RGCNLayerParams:
    """One layer's bases, per-relation coefficients, and self-loop weight."""

    basis: np.ndarray  # [n_bases, d_in, d_out] float32
    coeff: np.ndarray  # [n_relations, n_bases] float32
    self_weight: np.ndarray  # [d_in, d_out] float32
    activation: str = "relu"  # "relu" | "identity"

    def __post_init__(self):
        if self.basis.shape[0] > self.coeff.shape[0]:
            raise ValueError("n_bases must not exceed n_relations")
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation: {self.activation!r}")


@dataclass
class RGCNModel:
    """Learned input entity table, encoder layers, and decoder relation table."""

    entity_emb: np.ndarray  # [n_entities, d] float32
    layers: list[RGCNLayerParams]
    rel_emb: np.ndarray  # [n_relations, d_out] float32
    version: int = 0

    @property
    def n_entities(self) -> int:
        return self.entity_emb.shape[0]

    @property
    def n_relations(self) -> int:
        return self.rel_emb.shape[0]

    def tables(self) -> dict[str, np.ndarray]:
        out = {"entity_emb": self.entity_emb, "rel_emb": self.rel_emb}
        for i, layer in enumerate(self.layers):
            out[f"layer{i}.basis"] = layer.basis
            out[f"layer{i}.coeff"] = layer.coeff
            out[f"layer{i}.self"] = layer.self_weight
        return out

    def copy(self) -> "RGCNModel":
        return RGCNModel(
            entity_emb=self.entity_emb.copy(),
            layers=[
                replace(
                    l,
                    basis=l.basis.copy(),
                    coeff=l.coeff.copy(),
                    self_weight=l.self_weight.copy(),
                )
                for l in self.layers
            ],
            rel_emb=self.rel_emb.copy(),
            version=self.version,
        )


def param_tables(params: models.ModelParams | RGCNModel) -> dict[str, np.ndarray]:
    """The named parameter tables of a conventional model or an RGCN."""
    return params.tables() if isinstance(params, RGCNModel) else params.tables


def init_rgcn(
    n_entities: int, n_relations: int, dim: int, n_bases: int, n_layers: int = 2, seed=0
) -> RGCNModel:
    """Seeded uniform init; all layer widths equal ``dim``."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 1 <= n_bases <= n_relations:
        raise ValueError(f"n_bases must be in [1, n_relations], got {n_bases}")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)

    def uni(shape, b=bound):
        return rng.uniform(-b, b, size=shape).astype(np.float32)

    layers = [
        RGCNLayerParams(
            basis=uni((n_bases, dim, dim)),
            coeff=uni((n_relations, n_bases), b=1.0 / np.sqrt(n_bases)),
            self_weight=uni((dim, dim)),
            activation="relu" if i < n_layers - 1 else "identity",
        )
        for i in range(n_layers)
    ]
    return RGCNModel(
        entity_emb=uni((n_entities, dim)),
        layers=layers,
        rel_emb=uni((n_relations, dim)),
    )


def _rel_groups(rel: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Each relation present, ascending, with the positions of its edges.

    The sort is stable, so each relation's edges keep the batch's order,
    and its messages are computed and scattered in that order.
    """
    order = np.argsort(rel, kind="stable")
    rels, starts = np.unique(rel[order], return_index=True)
    return list(zip(rels.tolist(), np.split(order, starts[1:])))


def _layer_forward(layer: RGCNLayerParams, graph: GraphBatch, x: np.ndarray, groups):
    src, dst = graph.edges[:, 0], graph.edges[:, 2]
    basis = layer.basis.astype(np.float64)
    coeff = layer.coeff.astype(np.float64)
    w0 = layer.self_weight.astype(np.float64)
    agg = np.zeros((x.shape[0], basis.shape[2]), dtype=np.float64)
    rel_groups = []
    for r, idx in groups:
        w_r = np.einsum("b,bio->io", coeff[r], basis)
        msg = (x[src[idx]] @ w_r) * graph.edge_norm[idx][:, None]
        models.scatter_add(agg, dst[idx], msg)
        rel_groups.append((r, idx, w_r))
    pre = agg + x @ w0
    out = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return out, {"x": x, "pre": pre, "rel_groups": rel_groups}


def rgcn_forward(
    layers: list[RGCNLayerParams], graph: GraphBatch, input_emb: np.ndarray, return_cache=False
):
    """Encode the batch's nodes; returns [n_nodes, d_out] float64."""
    x = np.asarray(input_emb, dtype=np.float64)
    if x.shape[0] != len(graph.node_ids):
        raise ValueError(
            f"input_emb has {x.shape[0]} rows for {len(graph.node_ids)} graph nodes"
        )
    groups = _rel_groups(graph.edges[:, 1])
    caches = []
    for layer in layers:
        if x.shape[1] != layer.basis.shape[1]:
            raise ValueError(
                f"layer expects width {layer.basis.shape[1]}, input has {x.shape[1]}"
            )
        x, cache = _layer_forward(layer, graph, x, groups)
        if return_cache:
            caches.append(cache)
    return (x, caches) if return_cache else x


def rgcn_backward(
    layers: list[RGCNLayerParams],
    graph: GraphBatch,
    caches: list[dict],
    d_out: np.ndarray,
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Backprop d(loss)/d(node reps) to the input rows and all layer params."""
    src, dst = graph.edges[:, 0], graph.edges[:, 2]
    d_x = np.asarray(d_out, dtype=np.float64)
    layer_grads: list[dict[str, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
    for li in range(len(layers) - 1, -1, -1):
        layer, cache = layers[li], caches[li]
        x, pre = cache["x"], cache["pre"]
        d_pre = d_x * (pre > 0) if layer.activation == "relu" else d_x
        basis = layer.basis.astype(np.float64)
        coeff = layer.coeff.astype(np.float64)
        g_basis = np.zeros_like(basis)
        g_coeff = np.zeros_like(coeff)
        g_self = x.T @ d_pre
        d_in = d_pre @ layer.self_weight.astype(np.float64).T
        for r, idx, w_r in cache["rel_groups"]:
            d_msg = d_pre[dst[idx]] * graph.edge_norm[idx][:, None]
            g_wr = x[src[idx]].T @ d_msg
            g_coeff[r] = np.einsum("bio,io->b", basis, g_wr)
            g_basis += coeff[r][:, None, None] * g_wr
            models.scatter_add(d_in, src[idx], d_msg @ w_r.T)
        layer_grads[li] = {"basis": g_basis, "coeff": g_coeff, "self": g_self}
        d_x = d_in
    return d_x, layer_grads


def rgcn_score(encoded: np.ndarray, rel_emb: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """DistMult over encoded node representations; triples index ``encoded`` rows.

    The per-triple reference for the decoder, which trains and ranks
    through :mod:`kgembed.models` with the same arithmetic.
    """
    triples = np.asarray(triples, dtype=np.int64)
    if triples.size and triples[:, [0, 2]].max() >= encoded.shape[0]:
        raise ValueError("triple endpoint outside the encoded node set")
    enc = np.asarray(encoded, dtype=np.float64)
    rel = np.asarray(rel_emb, dtype=np.float64)[triples[:, 1]]
    return ((enc[triples[:, 0]] * rel) * enc[triples[:, 2]]).sum(axis=-1)


def _decoder(reps: np.ndarray, rel_emb: np.ndarray) -> models.ModelParams:
    """DistMult over encoded node rows, as conventional model parameters."""
    return models.ModelParams("distmult", rel_emb.shape[1], {"ent": reps, "rel": rel_emb})


def rgcn_loss_and_grad(
    model: RGCNModel, graph: GraphBatch, message_graph: GraphBatch | None, spec: LossSpec
) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """One training step's loss and gradients over a graph batch.

    ``graph`` provides the node set and training triples; messages flow on
    ``message_graph`` (the same batch with edge dropout applied) when
    given, else on ``graph`` itself.
    """
    msg_graph = message_graph if message_graph is not None else graph
    x0 = model.entity_emb[graph.node_ids].astype(np.float64)
    reps, caches = rgcn_forward(model.layers, msg_graph, x0, return_cache=True)
    loss, decoder_grads = models.grad(_decoder(reps, model.rel_emb), graph.negatives, spec)

    d_reps = np.zeros_like(reps)
    if "ent" in decoder_grads:
        ids, rows = decoder_grads["ent"]
        d_reps[ids] = rows
    d_x0, layer_grads = rgcn_backward(model.layers, msg_graph, caches, d_reps)

    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {"entity_emb": (graph.node_ids, d_x0)}
    if "rel" in decoder_grads:
        grads["rel_emb"] = decoder_grads["rel"]
    for i, lg in enumerate(layer_grads):
        grads[f"layer{i}.basis"] = (np.arange(lg["basis"].shape[0]), lg["basis"])
        grads[f"layer{i}.coeff"] = (np.arange(lg["coeff"].shape[0]), lg["coeff"])
        grads[f"layer{i}.self"] = (np.arange(lg["self"].shape[0]), lg["self"])
    return loss, grads


class RGCNScorer(CKGEScorer):
    """Evaluation adapter: encode once over the full train graph, rank with DistMult."""

    def __init__(self, model: RGCNModel, full_graph: GraphBatch):
        if len(full_graph.node_ids) != model.n_entities:
            raise ValueError("evaluation graph must cover every entity")
        self.encoded = rgcn_forward(
            model.layers, full_graph, model.entity_emb[full_graph.node_ids].astype(np.float64)
        )
        super().__init__(_decoder(self.encoded, model.rel_emb))
