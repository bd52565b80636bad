"""Negative sampling strategies and subgraph sampling for GNN training.

Every sampler is a pure function of (kg, inputs, seed): the RNG is always
constructed locally from the seed argument, so identical calls give
byte-identical batches. Candidate filtering tests membership against the
train split only; evaluation-time filtering is a separate concern.

A :class:`NegBatch` holds each negative as the entity it puts in one slot
of its positive (``replaced``, ``slot``): the sampler draws that form and
:func:`kgembed.models.grad` reads it, and no [B, N, 3] copy is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import HEAD, TAIL, IndexedKG

RETRY_CAP = 10  # resampling rounds before accepting a filtered candidate, flagged


@dataclass
class NegBatch:
    """Positive triples paired with corrupted candidates.

    Negative j of positive i puts ``replaced[i, j]`` in the field that
    ``slot[i, j]`` names (0 = head, 1 = tail) and keeps the positive's
    other two fields. ``fallback`` marks candidates that still collide with
    a train triple after the retry cap and were accepted unfiltered.
    """

    positives: np.ndarray  # [B, 3] int64
    replaced: np.ndarray  # [B, N] int64
    slot: np.ndarray  # [B, N] uint8
    fallback: np.ndarray  # [B, N] bool

    @property
    def negatives(self) -> np.ndarray:
        """The negatives as [B, N, 3] triples, built on each read."""
        return _triples(self.positives, self.replaced, self.slot == HEAD)


@dataclass
class LabeledBatch:
    """Triples with real-valued labels in [0, 1], for 1-vs-all / soft-label losses.

    [n, n_entities] labels sweep each triple's tail over every entity (1-vs-all):
    ``labels[i, e]`` labels (h_i, r_i, e), and no [n * n_entities, 3] triples are built.
    """

    triples: np.ndarray  # [n, 3] int64
    labels: np.ndarray  # [n] or [n, n_entities] float64


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
    order is fixed. The samplers sort with one ``np.sort`` of the packed
    int64 key (dst*R + rel)*E + src over global ids (``TripleIndex``'s
    packing), unpacked by ``divmod``, and each edge's norm is 1 over the
    length of its (dst, rel) run in that order. ``negatives`` holds the
    training triples (the sampled edges) and their uniform corruptions;
    its ``replaced`` ids are local too.
    """

    node_ids: np.ndarray  # [M] int64, global entity ids, sorted
    edges: np.ndarray  # [E, 3] int64, local indices
    edge_norm: np.ndarray  # [E] float64, 1 / |edges sharing (dst, rel)|
    negatives: NegBatch  # local-index training triples + corruptions


def filter_known(candidates, kg: IndexedKG) -> list:
    """Drop candidates present in the train split, preserving order."""
    candidates = [tuple(c) for c in candidates]
    known = kg.in_train(np.array(candidates, dtype=np.int64).reshape(-1, 3))
    return [c for c, k in zip(candidates, known.tolist()) if not k]


def _triples(positives: np.ndarray, replaced: np.ndarray, head) -> np.ndarray:
    """[B, N, 3] triples: positive i with ``replaced[i, j]`` as head where ``head``, else tail."""
    out = np.repeat(positives[:, None, :], replaced.shape[1], axis=1)
    out[..., 0] = np.where(head, replaced, out[..., 0])
    out[..., 2] = np.where(head, out[..., 2], replaced)
    return out


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
    anchors, m = positives, kg.n_entities
    if node_ids is not None:
        anchors, m = positives.copy(), len(node_ids)
        anchors[:, [0, 2]] = node_ids[positives[:, [0, 2]]]
    b = positives.shape[0]

    slot = np.where(rng.random((b, n_neg)) < head_prob, HEAD, TAIL).astype(np.uint8)
    head = slot == HEAD

    def in_train(anchors, replaced, head):
        ids = replaced if node_ids is None else node_ids[replaced]
        return kg.in_train(_triples(anchors, ids, head))

    replaced = rng.integers(0, m, size=(b, n_neg), dtype=np.int64)
    bad = in_train(anchors, replaced, head)
    for _ in range(RETRY_CAP):
        if not bad.any():
            break
        bi, bj = bad.nonzero()
        replaced[bi, bj] = rng.integers(0, m, size=len(bi), dtype=np.int64)
        # the others were accepted already
        bad[bi, bj] = in_train(anchors[bi], replaced[bi, bj, None], head[bi, bj, None])[:, 0]
    return NegBatch(positives=positives, replaced=replaced, slot=slot, fallback=bad)


def _check_positives(positives, n_neg: int) -> np.ndarray:
    positives = np.asarray(positives, dtype=np.int64)
    if positives.ndim != 2 or positives.shape[1] != 3:
        raise ValueError("positives must be an [n, 3] array")
    if n_neg < 1:
        raise ValueError(f"n_neg must be >= 1, got {n_neg}")
    return positives


def uniform_negatives(kg: IndexedKG, positives: np.ndarray, n_neg: int, seed) -> NegBatch:
    """Corrupt head or tail with probability 1/2 each, replacement uniform over entities.

    Candidates colliding with train triples are redrawn up to the retry
    cap, then accepted with ``fallback`` set.
    """
    rng = np.random.default_rng(seed)
    return _corrupt(kg, _check_positives(positives, n_neg), n_neg, 0.5, rng)


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
    positives = _check_positives(positives, n_neg)
    p = table.p_head[positives[:, 1]]
    if np.isnan(p).any():
        missing = int(positives[np.isnan(p).nonzero()[0][0], 1])
        raise ValueError(f"relation {missing} does not occur in the train split")
    rng = np.random.default_rng(seed)
    return _corrupt(kg, positives, n_neg, p[:, None], rng)


def all_negatives(triple, slot: int, kg: IndexedKG) -> np.ndarray:
    """All n_entities candidates for one slot of one triple, the positive included.

    Candidate i replaces the slot entity with entity id i, so the row at
    the positive's own entity id equals the positive. Training and ranking
    sweep a slot as a broadcast [B, n_entities] query group instead.
    """
    if slot not in (HEAD, TAIL):
        raise ValueError(f"slot must be HEAD (0) or TAIL (1), got {slot}")
    positive = np.array([[int(x) for x in triple]], dtype=np.int64)
    return _triples(positive, np.arange(kg.n_entities)[None], slot == HEAD)[0]


def sample_graph(kg: IndexedKG, n_edges: int, n_neg: int, seed) -> GraphBatch:
    """Sample train edges without replacement and build a local graph batch.

    edge_norm is 1 over the number of batch edges sharing (dst, rel).
    Uniform negatives are drawn over the batch's node set.
    """
    if n_edges > len(kg.train):
        raise ValueError(f"n_edges {n_edges} exceeds train size {len(kg.train)}")
    rng = np.random.default_rng(seed)
    picked = _sorted_edges(kg, kg.train[rng.choice(len(kg.train), size=n_edges, replace=False)])

    node_ids = np.unique(picked[:, [0, 2]])
    src = np.searchsorted(node_ids, picked[:, 0])
    dst = np.searchsorted(node_ids, picked[:, 2])
    edges = np.stack([src, picked[:, 1], dst], axis=1).astype(np.int64)

    negatives = _corrupt(kg, edges, n_neg, 0.5, rng, node_ids)
    return GraphBatch(node_ids, edges, _edge_norm(edges), negatives)


def mask_edges(batch: GraphBatch, drop_rate: float, seed) -> GraphBatch:
    """Edge dropout: keep a random subset of message edges, norms recomputed.

    The training triples (``negatives``) are untouched; only the message
    graph shrinks. The kept edges stay in the batch's sorted order, which
    the norms are counted in.
    """
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(batch.edges)) >= drop_rate
    if not keep.any():  # degenerate tiny batch: keep everything
        keep[:] = True
    edges = batch.edges[keep]
    return replace(batch, edges=edges, edge_norm=_edge_norm(edges))


def full_graph(kg: IndexedKG, n_neg: int = 1, seed=0) -> GraphBatch:
    """A GraphBatch over the entire train split with global node ids 0..n-1.

    Used for full-graph training on small KGs and for evaluation-time
    encoding; node_ids covers every entity so local ids equal global ids.
    ``n_neg=0`` draws no corruptions (``negatives`` holds the train edges
    with an empty [E, 0] ``replaced`` array): encoding reads edges only.
    """
    node_ids = np.arange(kg.n_entities, dtype=np.int64)
    edges = _sorted_edges(kg, kg.train)
    if n_neg == 0:  # no draws; skips the train membership table that _corrupt would build
        empty = np.zeros((len(edges), 0), dtype=np.int64)
        negatives = NegBatch(edges, empty, empty.astype(np.uint8), empty.astype(bool))
    else:
        rng = np.random.default_rng(seed)
        negatives = _corrupt(kg, edges, n_neg, 0.5, rng)  # local ids are global ids here
    return GraphBatch(node_ids, edges, _edge_norm(edges), negatives)


def _sorted_edges(kg: IndexedKG, triples: np.ndarray) -> np.ndarray:
    """``triples`` sorted by (tail, relation, head), as a new [n, 3] int64 array.

    One sort of the packed key (t*R + r)*E + h, unpacked by ``divmod``:
    equal keys are equal triples, so this is ``lexsort``'s order row for row.
    """
    n_e, n_r = kg.n_entities, kg.n_relations
    h, r, t = np.asarray(triples, dtype=np.int64).T
    tr, h = np.divmod(np.sort((t * n_r + r) * n_e + h), n_e)
    t, r = np.divmod(tr, n_r)
    return np.stack([h, r, t], axis=1)


def _edge_norm(edges: np.ndarray) -> np.ndarray:
    """1 / the size of each edge's (dst, rel) run; ``edges`` must be sorted by (dst, rel)."""
    n = len(edges)
    starts = np.ones(n, dtype=bool)
    starts[1:] = (edges[1:, 2] != edges[:-1, 2]) | (edges[1:, 1] != edges[:-1, 1])
    counts = np.diff(np.append(starts.nonzero()[0], n))
    return np.repeat(1.0 / counts, counts)
