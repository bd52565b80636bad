"""RGCN entity encoder over sampled subgraphs, DistMult-decoded.

Two-layer basis-decomposition RGCN: per-relation weights are learned
combinations W_r = sum_b a[r, b] * V_b of shared bases. Layer update:

    out(i) = act( sum_{(j,r,i) in edges} edge_norm * (x_j @ W_r) + x_i @ W0 )

with ReLU on hidden layers and identity on the last. Backward passes are
hand-derived like the conventional models and checked against finite
differences.

Each forward builds one relation plan (``_RelationPlan``): a stable
argsort of the edges' relation ids (a radix sort of 16-bit keys) gives
src, dst and edge norm in relation order, plus one slice per relation
present. Every layer and the backward read those slices. A layer's
messages run relation by relation, ascending, and within a relation in
the batch's edge order, in blocks of at most ``_MESSAGE_BLOCK`` edges (a
tail under half a block joins the block before it): gather the source
rows, multiply by W_r, scale by the norms in place, scatter-add into the
destinations. Blocking changes only the row count of each GEMM, not the
order of any sum, so the output is bit for bit that of one GEMM per
relation, and the message temporaries stay a few blocks in size however
many edges a relation has. The backward keeps one GEMM per relation:
its ``x.T @ d_msg`` sums over the relation's edges, and blocks would
change that sum's rounding.

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

    def copy(self, array=np.ndarray.copy) -> "RGCNModel":
        """A copy whose tables are ``array`` of each (by default a copy of it)."""
        return RGCNModel(
            entity_emb=array(self.entity_emb),
            layers=[
                replace(
                    l,
                    basis=array(l.basis),
                    coeff=array(l.coeff),
                    self_weight=array(l.self_weight),
                )
                for l in self.layers
            ],
            rel_emb=array(self.rel_emb),
            version=self.version,
        )


def param_tables(params: models.ModelParams | RGCNModel) -> dict[str, np.ndarray]:
    """The named parameter tables of a conventional model or an RGCN."""
    return params.tables() if isinstance(params, RGCNModel) else params.tables


def init_rgcn(
    n_entities: int,
    n_relations: int,
    dim: int,
    n_bases: int,
    n_layers: int = 2,
    seed=0,
    shapes_only: bool = False,
) -> RGCNModel:
    """Seeded uniform init; all layer widths equal ``dim``.

    With ``shapes_only`` each table is a read-only zero-stride view of its
    shape: nothing is drawn and no table memory is allocated.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 1 <= n_bases <= n_relations:
        raise ValueError(f"n_bases must be in [1, n_relations], got {n_bases}")
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)

    def uni(shape, b=bound):
        if shapes_only:
            return np.broadcast_to(np.float32(0.0), shape)
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


_MESSAGE_BLOCK = 4096  # most edges per forward message block (module docstring)


@dataclass(frozen=True)
class _RelationPlan:
    """A graph's edges in relation order, and each present relation's slice.

    The sort is stable, so each relation's edges keep the batch's order.
    """

    src: np.ndarray  # [E] int64
    dst: np.ndarray  # [E] int64
    norm: np.ndarray  # [E] float64
    spans: list[tuple[int, int, int]]  # (relation, start, stop), relations ascending

    @classmethod
    def of(cls, graph: GraphBatch) -> "_RelationPlan":
        rel = graph.edges[:, 1]
        # numpy radix-sorts 16-bit keys when asked for a stable sort
        keys = rel.astype(np.uint16) if len(rel) and rel.max() < 1 << 16 else rel
        order = np.argsort(keys, kind="stable")
        rel = rel[order]
        cuts = [0, *(np.flatnonzero(np.diff(rel)) + 1).tolist(), len(rel)]
        spans = [(int(rel[lo]), lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
        src, dst = graph.edges[:, 0].take(order), graph.edges[:, 2].take(order)
        return cls(src, dst, graph.edge_norm.take(order), spans)


def _blocks(start: int, stop: int):
    """[start, stop) in consecutive blocks of _MESSAGE_BLOCK; a short tail joins the last."""
    n_blocks = max(1, (stop - start + _MESSAGE_BLOCK // 2) // _MESSAGE_BLOCK)
    cuts = [start + i * _MESSAGE_BLOCK for i in range(n_blocks)] + [stop]
    return zip(cuts[:-1], cuts[1:])


def _layer_forward(layer: RGCNLayerParams, plan: _RelationPlan, x: np.ndarray, keep: bool):
    """The layer's output, and its backward cache if ``keep`` (else None).

    Relation blocks are scattered in plan order, then the self-loop is added.
    """
    basis = layer.basis.astype(np.float64)
    coeff = layer.coeff.astype(np.float64)
    weights = (np.einsum("b,bio->io", coeff[r], basis) for r, _, _ in plan.spans)
    if keep:
        weights = list(weights)  # the backward reads them again
    pre = np.zeros((x.shape[0], layer.basis.shape[2]), dtype=np.float64)
    for (_, start, stop), w_r in zip(plan.spans, weights):
        for lo, hi in _blocks(start, stop):
            msg = x.take(plan.src[lo:hi], axis=0) @ w_r
            msg *= plan.norm[lo:hi, None]
            models.scatter_add(pre, plan.dst[lo:hi], msg)
    pre += x @ layer.self_weight.astype(np.float64)
    out = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return out, ({"x": x, "pre": pre, "plan": plan, "weights": weights} if keep else None)


def rgcn_forward(
    layers: list[RGCNLayerParams], graph: GraphBatch, input_emb: np.ndarray, return_cache=False
):
    """Encode the batch's nodes; returns [n_nodes, d_out] float64."""
    x = np.asarray(input_emb, dtype=np.float64)
    if x.shape[0] != len(graph.node_ids):
        raise ValueError(
            f"input_emb has {x.shape[0]} rows for {len(graph.node_ids)} graph nodes"
        )
    rel, n_rel = graph.edges[:, 1], len(layers[0].coeff)
    if len(rel) and (rel.min() < 0 or rel.max() >= n_rel):  # -1 would wrap in the plan's uint16 key
        e = int(np.flatnonzero((rel < 0) | (rel >= n_rel))[0])
        edge = graph.edges[e].tolist()
        raise ValueError(f"edge {e} {edge} has relation id {rel[e]} outside [0, {n_rel})")
    plan = _RelationPlan.of(graph)
    caches = []
    for layer in layers:
        if x.shape[1] != layer.basis.shape[1]:
            raise ValueError(
                f"layer expects width {layer.basis.shape[1]}, input has {x.shape[1]}"
            )
        x, cache = _layer_forward(layer, plan, x, return_cache)
        if return_cache:
            caches.append(cache)
    return (x, caches) if return_cache else x


def rgcn_backward(
    layers: list[RGCNLayerParams],
    graph: GraphBatch,
    caches: list[dict],
    d_out: np.ndarray,
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Backprop d(loss)/d(node reps) to the input rows and all layer params.

    ``caches`` come from ``rgcn_forward(..., return_cache=True)`` on ``graph``.
    """
    d_x = np.asarray(d_out, dtype=np.float64)
    layer_grads: list[dict[str, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
    for li in range(len(layers) - 1, -1, -1):
        layer, cache = layers[li], caches[li]
        x, pre, plan = cache["x"], cache["pre"], cache["plan"]
        d_pre = d_x * (pre > 0) if layer.activation == "relu" else d_x
        basis = layer.basis.astype(np.float64)
        coeff = layer.coeff.astype(np.float64)
        g_basis = np.zeros_like(basis)
        g_coeff = np.zeros_like(coeff)
        g_self = x.T @ d_pre
        d_in = d_pre @ layer.self_weight.astype(np.float64).T
        # whole-relation GEMMs: x.T @ d_msg sums over the edges, so blocks would move bits
        for (r, lo, hi), w_r in zip(plan.spans, cache["weights"]):
            src = plan.src[lo:hi]
            d_msg = d_pre.take(plan.dst[lo:hi], axis=0) * plan.norm[lo:hi, None]
            g_wr = x.take(src, axis=0).T @ d_msg
            g_coeff[r] = np.einsum("bio,io->b", basis, g_wr)
            g_basis += coeff[r][:, None, None] * g_wr
            models.scatter_add(d_in, src, d_msg @ w_r.T)
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
