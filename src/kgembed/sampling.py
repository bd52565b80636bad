"""Negative sampling strategies and subgraph sampling for GNN training.

Every sampler is a pure function of (kg, inputs, seed): the RNG is always
constructed locally from the seed argument, so identical calls give
byte-identical batches. Candidate filtering tests membership against the
train split only; evaluation-time filtering is a separate concern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import HEAD, TAIL, IndexedKG

RETRY_CAP = 10  # resampling rounds before accepting a filtered candidate, flagged


@dataclass
class NegBatch:
    """Positive triples paired with corrupted candidates.

    ``slot[i, j]`` says which field of ``negatives[i, j]`` was replaced
    (0 = head, 1 = tail); the other two fields equal the positive's.
    ``fallback`` marks candidates that still collide with a train triple
    after the retry cap and were accepted unfiltered.
    """

    positives: np.ndarray  # [B, 3] int64
    negatives: np.ndarray  # [B, N, 3] int64
    slot: np.ndarray  # [B, N] uint8
    fallback: np.ndarray  # [B, N] bool


@dataclass
class LabeledBatch:
    """Triples with real-valued labels in [0, 1], for 1-vs-all / soft-label losses."""

    triples: np.ndarray  # [n, 3] int64
    labels: np.ndarray  # [n] float64


@dataclass(frozen=True)
class BernoulliTable:
    """Per-relation head-corruption probabilities from train statistics.

    tph is mean tails per distinct head, hpt mean heads per distinct tail;
    the head slot is corrupted with probability tph / (tph + hpt).
    Relations absent from train carry NaN and are rejected at sampling time.
    """

    tph: np.ndarray  # [n_relations] float64
    hpt: np.ndarray
    p_head: np.ndarray


@dataclass
class GraphBatch:
    """A sampled edge set with in-batch normalization, for GNN encoders.

    ``edges`` are (src, rel, dst) with node indices local to ``node_ids``;
    edges are sorted by (dst, rel, src) so per-node message aggregation
    order is fixed. ``negatives`` holds the training triples (the sampled
    edges) and their uniform corruptions, also in local indices.
    """

    node_ids: np.ndarray  # [M] int64, global entity ids, sorted
    edges: np.ndarray  # [E, 3] int64, local indices
    edge_norm: np.ndarray  # [E] float64, 1 / |edges sharing (dst, rel)|
    node_norm: np.ndarray  # [M] float64, 1 / in-degree (isolated-in -> 1)
    negatives: NegBatch  # local-index training triples + corruptions


def filter_known(candidates, kg: IndexedKG) -> list:
    """Drop candidates present in the train split, preserving order."""
    candidates = [tuple(c) for c in candidates]
    known = kg.in_train(np.array(candidates, dtype=np.int64).reshape(-1, 3))
    return [c for c, k in zip(candidates, known.tolist()) if not k]


def _corrupt(
    kg: IndexedKG,
    positives: np.ndarray,
    n_neg: int,
    head_prob,
    rng: np.random.Generator,
    node_ids: np.ndarray | None = None,
) -> NegBatch:
    """Shared corruption core: pick slots, draw entities, filter, retry.

    With ``node_ids``, ``positives`` hold indices into it: replacements
    are drawn over that node set, and filtered after mapping to global ids.
    """
    if node_ids is None:  # caller-supplied positives; graph batches build their own
        positives = np.asarray(positives, dtype=np.int64)
        if positives.ndim != 2 or positives.shape[1] != 3:
            raise ValueError("positives must be an [n, 3] array")
        if n_neg < 1:
            raise ValueError(f"n_neg must be >= 1, got {n_neg}")
    b = positives.shape[0]
    m = kg.n_entities if node_ids is None else len(node_ids)

    slot = np.where(rng.random((b, n_neg)) < head_prob, HEAD, TAIL).astype(np.uint8)
    negatives = np.repeat(positives[:, None, :], n_neg, axis=1)
    cols = np.where(slot == HEAD, 0, 2)
    rows = np.arange(b)[:, None]
    negs = np.arange(n_neg)[None, :]

    def in_train(tr):
        if node_ids is not None:
            tr = tr.copy()
            tr[..., 0] = node_ids[tr[..., 0]]
            tr[..., 2] = node_ids[tr[..., 2]]
        return kg.in_train(tr)

    negatives[rows, negs, cols] = rng.integers(0, m, size=(b, n_neg), dtype=np.int64)
    bad = in_train(negatives)
    for _ in range(RETRY_CAP):
        if not bad.any():
            break
        bi, bj = bad.nonzero()
        redraw = rng.integers(0, m, size=len(bi), dtype=np.int64)
        negatives[bi, bj, cols[bi, bj]] = redraw
        bad = in_train(negatives)
    return NegBatch(positives=positives, negatives=negatives, slot=slot, fallback=bad)


def uniform_negatives(kg: IndexedKG, positives: np.ndarray, n_neg: int, seed) -> NegBatch:
    """Corrupt head or tail with probability 1/2 each, replacement uniform over entities.

    Candidates colliding with train triples are redrawn up to the retry
    cap, then accepted with ``fallback`` set.
    """
    rng = np.random.default_rng(seed)
    return _corrupt(kg, positives, n_neg, 0.5, rng)


def bernoulli_table(kg: IndexedKG) -> BernoulliTable:
    """Compute per-relation tph / hpt / p_head from the train split.

    Triple counts are over raw train lines (duplicates each count); head
    and tail counts are over the distinct (h, r) and (r, t) pairs.
    """
    n_rel = kg.n_relations
    counts = np.bincount(kg.train[:, 1], minlength=n_rel).astype(np.float64)
    heads = np.bincount(kg.train_index.pairs(TAIL)[:, 1], minlength=n_rel)
    tails = np.bincount(kg.train_index.pairs(HEAD)[:, 0], minlength=n_rel)
    with np.errstate(invalid="ignore", divide="ignore"):
        tph = np.where(counts > 0, counts / heads, np.nan)
        hpt = np.where(counts > 0, counts / tails, np.nan)
        p_head = tph / (tph + hpt)
    return BernoulliTable(tph=tph, hpt=hpt, p_head=p_head)


def bern_negatives(
    kg: IndexedKG, positives: np.ndarray, n_neg: int, table: BernoulliTable, seed
) -> NegBatch:
    """Corrupt the head with per-relation probability p_head(r), else the tail."""
    positives = np.asarray(positives, dtype=np.int64)
    p = table.p_head[positives[:, 1]]
    if np.isnan(p).any():
        missing = int(positives[np.isnan(p).nonzero()[0][0], 1])
        raise ValueError(f"relation {missing} does not occur in the train split")
    rng = np.random.default_rng(seed)
    return _corrupt(kg, positives, n_neg, p[:, None], rng)


def candidate_triples(queries, slot: int, n_entities: int) -> np.ndarray:
    """Every entity in ``slot`` of each [B, 3] query, as [B * n_entities, 3] triples.

    Row i * n_entities + e is query i with entity e in the head (slot=0)
    or tail (slot=1) position.
    """
    if slot not in (HEAD, TAIL):
        raise ValueError(f"slot must be HEAD (0) or TAIL (1), got {slot}")
    queries = np.asarray(queries, dtype=np.int64)
    col = 0 if slot == HEAD else 2
    out = np.repeat(queries, n_entities, axis=0)
    out.reshape(len(queries), n_entities, 3)[:, :, col] = np.arange(n_entities)
    return out


def all_negatives(triple, slot: int, kg: IndexedKG) -> np.ndarray:
    """All n_entities candidates for one slot of one triple, the positive included.

    Candidate i replaces the slot entity with entity id i, so the row at
    the positive's own entity id equals the positive.
    """
    h, r, t = (int(x) for x in triple)
    return candidate_triples([[h, r, t]], slot, kg.n_entities)


def sample_graph(kg: IndexedKG, n_edges: int, n_neg: int, seed) -> GraphBatch:
    """Sample train edges without replacement and build a local graph batch.

    edge_norm is 1 over the number of batch edges sharing (dst, rel);
    node_norm is 1 over in-batch in-degree (1 for nodes with none).
    Uniform negatives are drawn over the batch's node set.
    """
    if n_edges > len(kg.train):
        raise ValueError(f"n_edges {n_edges} exceeds train size {len(kg.train)}")
    rng = np.random.default_rng(seed)
    picked = kg.train[rng.choice(len(kg.train), size=n_edges, replace=False)]
    order = np.lexsort((picked[:, 0], picked[:, 1], picked[:, 2]))
    picked = picked[order]

    node_ids = np.unique(picked[:, [0, 2]])
    src = np.searchsorted(node_ids, picked[:, 0])
    dst = np.searchsorted(node_ids, picked[:, 2])
    edges = np.stack([src, picked[:, 1], dst], axis=1).astype(np.int64)

    edge_norm, node_norm = _graph_norms(edges, len(node_ids))

    negatives = _corrupt(kg, edges, n_neg, 0.5, rng, node_ids)
    return GraphBatch(
        node_ids=node_ids,
        edges=edges,
        edge_norm=edge_norm,
        node_norm=node_norm,
        negatives=negatives,
    )


def mask_edges(batch: GraphBatch, drop_rate: float, seed) -> GraphBatch:
    """Edge dropout: keep a random subset of message edges, norms recomputed.

    The training triples (``negatives``) are untouched; only the message
    graph shrinks.
    """
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(batch.edges)) >= drop_rate
    if not keep.any():  # degenerate tiny batch: keep everything
        keep[:] = True
    edges = batch.edges[keep]
    edge_norm, node_norm = _graph_norms(edges, len(batch.node_ids))
    return GraphBatch(
        node_ids=batch.node_ids,
        edges=edges,
        edge_norm=edge_norm,
        node_norm=node_norm,
        negatives=batch.negatives,
    )


def full_graph(kg: IndexedKG, n_neg: int = 1, seed=0) -> GraphBatch:
    """A GraphBatch over the entire train split with global node ids 0..n-1.

    Used for full-graph training on small KGs and for evaluation-time
    encoding; node_ids covers every entity so local ids equal global ids.
    ``n_neg=0`` draws no corruptions (``negatives`` holds the train edges
    with an empty [E, 0, 3] candidate array): encoding reads edges only.
    """
    order = np.lexsort((kg.train[:, 0], kg.train[:, 1], kg.train[:, 2]))
    picked = kg.train[order]
    node_ids = np.arange(kg.n_entities, dtype=np.int64)
    edges = picked.astype(np.int64)
    edge_norm, node_norm = _graph_norms(edges, kg.n_entities)
    rng = np.random.default_rng(seed)
    negatives = _corrupt(kg, edges, n_neg, 0.5, rng, node_ids)
    return GraphBatch(
        node_ids=node_ids,
        edges=edges,
        edge_norm=edge_norm,
        node_norm=node_norm,
        negatives=negatives,
    )


def _graph_norms(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    if len(edges) == 0:
        return np.zeros(0), np.ones(n_nodes)
    group = edges[:, 2] * (edges[:, 1].max() + 1) + edges[:, 1]
    _, inverse, counts = np.unique(group, return_inverse=True, return_counts=True)
    edge_norm = 1.0 / counts[inverse]
    indeg = np.bincount(edges[:, 2], minlength=n_nodes)
    node_norm = np.where(indeg > 0, 1.0 / np.maximum(indeg, 1), 1.0)
    return edge_norm, node_norm
