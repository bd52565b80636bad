import numpy as np
import pytest

from kgembed import gnn, models
from kgembed.gnn import (
    RGCNLayerParams,
    RGCNModel,
    RGCNScorer,
    init_rgcn,
    rgcn_backward,
    rgcn_forward,
    rgcn_loss_and_grad,
    rgcn_score,
)
from kgembed.losses import LossSpec
from kgembed.models import ModelParams, init_params, scatter_add, score
from kgembed.sampling import GraphBatch, NegBatch, full_graph, sample_graph

from conftest import make_kg, random_label_triples
from fd_utils import batch_loss, fixed_adv_weights
from test_evaluate import known_completions


def random_graph_kg(rng, n_entities=12, n_relations=3, n_triples=40):
    labels = random_label_triples(rng, n_entities, n_relations, n_triples)
    return make_kg(labels)


def dense_forward(layers, graph, x0):
    """Dense adjacency-matrix oracle for the layer update."""
    x = np.asarray(x0, dtype=np.float64)
    m = len(graph.node_ids)
    for layer in layers:
        basis = layer.basis.astype(np.float64)
        coeff = layer.coeff.astype(np.float64)
        out = x @ layer.self_weight.astype(np.float64)
        for r in range(coeff.shape[0]):
            adj = np.zeros((m, m))
            for e, (s, rr, d) in enumerate(graph.edges):
                if rr == r:
                    adj[d, s] += graph.edge_norm[e]
            w_r = np.einsum("b,bio->io", coeff[r], basis)
            out = out + adj @ (x @ w_r)
        x = np.maximum(out, 0.0) if layer.activation == "relu" else out
    return x


def empty_graph(n_nodes):
    return GraphBatch(
        node_ids=np.arange(n_nodes, dtype=np.int64),
        edges=np.zeros((0, 3), dtype=np.int64),
        edge_norm=np.zeros(0),
        negatives=None,
    )


def test_isolated_node_identity_selfweight_is_relu():
    d = 4
    layer = RGCNLayerParams(
        basis=np.zeros((1, d, d), dtype=np.float32),
        coeff=np.zeros((2, 1), dtype=np.float32),
        self_weight=np.eye(d, dtype=np.float32),
        activation="relu",
    )
    x = np.array([[-1.0, 2.0, -3.0, 4.0]])
    out = rgcn_forward([layer], empty_graph(1), x)
    assert np.array_equal(out, np.maximum(x, 0.0))


def test_full_bases_with_identity_coeff_equal_dense_weights():
    rng = np.random.default_rng(0)
    _, kg = random_graph_kg(rng)
    g = full_graph(kg, seed=1)
    d, n_rel = 5, kg.n_relations
    bases = rng.normal(size=(n_rel, d, d)).astype(np.float32)
    layer = RGCNLayerParams(
        basis=bases,
        coeff=np.eye(n_rel, dtype=np.float32),
        self_weight=rng.normal(size=(d, d)).astype(np.float32),
        activation="identity",
    )
    x0 = rng.normal(size=(kg.n_entities, d))
    got = rgcn_forward([layer], g, x0)
    # oracle with explicit per-relation dense weights W_r = bases[r]
    expect = x0 @ layer.self_weight.astype(np.float64)
    for e, (s, r, dd) in enumerate(g.edges):
        expect[dd] += g.edge_norm[e] * (x0[s] @ bases[r].astype(np.float64))
    assert np.allclose(got, expect, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    _, kg = random_graph_kg(rng, n_entities=15, n_triples=50)
    g = sample_graph(kg, 30, 1, seed=seed)
    model = init_rgcn(kg.n_entities, kg.n_relations, dim=6, n_bases=2, seed=seed)
    x0 = model.entity_emb[g.node_ids].astype(np.float64)
    assert np.allclose(
        rgcn_forward(model.layers, g, x0), dense_forward(model.layers, g, x0), atol=1e-5
    )


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    _, kg = random_graph_kg(rng)
    g = full_graph(kg, seed=2)
    model = init_rgcn(kg.n_entities, kg.n_relations, dim=5, n_bases=2, seed=4)
    x0 = model.entity_emb.astype(np.float64)
    base = rgcn_forward(model.layers, g, x0)

    perm = rng.permutation(kg.n_entities)
    inv = np.argsort(perm)
    edges = g.edges.copy()
    edges[:, 0] = perm[edges[:, 0]]
    edges[:, 2] = perm[edges[:, 2]]
    permuted = GraphBatch(
        node_ids=g.node_ids,
        edges=edges,
        edge_norm=g.edge_norm.copy(),
        negatives=None,
    )
    out = rgcn_forward(model.layers, permuted, x0[inv])
    assert np.allclose(out[perm], base, atol=1e-9)


def test_double_edge_half_norm_invariance():
    rng = np.random.default_rng(5)
    _, kg = random_graph_kg(rng)
    g = full_graph(kg, seed=6)
    model = init_rgcn(kg.n_entities, kg.n_relations, dim=4, n_bases=2, seed=7)
    x0 = model.entity_emb.astype(np.float64)
    base = rgcn_forward(model.layers, g, x0)

    doubled = GraphBatch(
        node_ids=g.node_ids,
        edges=np.concatenate([g.edges, g.edges]),
        edge_norm=np.concatenate([g.edge_norm, g.edge_norm]) * 0.5,
        negatives=None,
    )
    assert np.allclose(rgcn_forward(model.layers, doubled, x0), base, atol=1e-9)


def test_dimension_mismatch_errors():
    model = init_rgcn(5, 2, dim=4, n_bases=1, seed=0)
    with pytest.raises(ValueError, match="rows"):
        rgcn_forward(model.layers, empty_graph(3), np.zeros((5, 4)))
    with pytest.raises(ValueError, match="width"):
        rgcn_forward(model.layers, empty_graph(3), np.zeros((3, 7)))


@pytest.mark.parametrize("bad", [-1, 3, 5])
def test_a_relation_id_outside_the_layers_names_its_edge(bad):
    """-1 would otherwise encode as relation 2 (a wrapped sort key), and 5 fail on an index."""
    model = init_rgcn(4, 3, dim=4, n_bases=2, seed=0)
    edges = np.array([[2, 2, 3], [0, bad, 1], [1, 0, 2]], dtype=np.int64)
    graph = GraphBatch(np.arange(4), edges, np.ones(3), None)
    message = rf"^edge 1 \[0, {bad}, 1\] has relation id {bad} outside \[0, 3\)$"
    with pytest.raises(ValueError, match=message):
        rgcn_forward(model.layers, graph, np.zeros((4, 4)))


def test_init_rgcn_rejects_no_layers():
    """Zero layers would build a model whose forward fails on a bare index."""
    with pytest.raises(ValueError, match=r"^n_layers must be >= 1, got 0$"):
        init_rgcn(4, 3, dim=4, n_bases=2, n_layers=0, seed=0)


def test_layer_param_validation():
    with pytest.raises(ValueError, match="n_bases"):
        RGCNLayerParams(
            basis=np.zeros((3, 2, 2), dtype=np.float32),
            coeff=np.zeros((2, 3), dtype=np.float32),
            self_weight=np.zeros((2, 2), dtype=np.float32),
        )


# --- decoder ---------------------------------------------------------------


def test_rgcn_score_symmetric():
    rng = np.random.default_rng(8)
    enc = rng.normal(size=(6, 4))
    rel = rng.normal(size=(2, 4)).astype(np.float32)
    tr = np.array([[0, 1, 3], [2, 0, 5]])
    assert np.allclose(
        rgcn_score(enc, rel, tr), rgcn_score(enc, rel, tr[:, [2, 1, 0]]), rtol=1e-12
    )


def test_rgcn_score_zero_relation():
    enc = np.ones((3, 4))
    rel = np.zeros((1, 4), dtype=np.float32)
    assert rgcn_score(enc, rel, np.array([[0, 0, 1]]))[0] == 0.0


def test_rgcn_score_matches_ckge_distmult():
    rng = np.random.default_rng(9)
    enc = rng.normal(size=(7, 5)).astype(np.float32)
    rel = rng.normal(size=(3, 5)).astype(np.float32)
    params = init_params("distmult", 7, 3, 5, seed=0)
    params.tables["ent"] = enc
    params.tables["rel"] = rel
    tr = np.stack([rng.integers(0, 7, 15), rng.integers(0, 3, 15), rng.integers(0, 7, 15)], 1)
    assert np.allclose(rgcn_score(enc.astype(np.float64), rel, tr), score(params, tr))


def test_rgcn_score_endpoint_out_of_range():
    with pytest.raises(ValueError, match="encoded"):
        rgcn_score(np.ones((2, 3)), np.ones((1, 3), dtype=np.float32), np.array([[0, 0, 5]]))


# --- training gradient -----------------------------------------------------


def fd_rgcn(model, graph, spec, table, row, coord, step=1e-5):
    """Central difference of the loss of the encoded graph's scores, as in fd_utils:
    the self-adversarial weights stay at their unperturbed values."""

    def set_f64(m):
        m.entity_emb = m.entity_emb.astype(np.float64)
        m.rel_emb = m.rel_emb.astype(np.float64)
        for l in m.layers:
            l.basis = l.basis.astype(np.float64)
            l.coeff = l.coeff.astype(np.float64)
            l.self_weight = l.self_weight.astype(np.float64)
        return m

    def decoder(m):
        reps = rgcn_forward(m.layers, graph, m.entity_emb[graph.node_ids])
        return ModelParams("distmult", m.rel_emb.shape[1], {"ent": reps, "rel": m.rel_emb})

    m = set_f64(model.copy())
    weights = fixed_adv_weights(decoder(m), graph.negatives, spec)
    t = m.tables()[table]
    idx = (row,) + tuple(coord)
    base = t[idx]
    t[idx] = base + step
    f_plus = batch_loss(decoder(m), graph.negatives, spec, fixed_weights=weights)
    t[idx] = base - step
    f_minus = batch_loss(decoder(m), graph.negatives, spec, fixed_weights=weights)
    t[idx] = base
    return (f_plus - f_minus) / (2 * step)


@pytest.mark.parametrize("loss_kind", ["bce", "margin", "self_adversarial"])
def test_encoder_decoder_gradient_matches_fd(loss_kind):
    rng = np.random.default_rng(10)
    _, kg = random_graph_kg(rng, n_entities=10, n_triples=30)
    g = sample_graph(kg, 15, 2, seed=11)
    model = init_rgcn(kg.n_entities, kg.n_relations, dim=4, n_bases=2, seed=12)
    # scores within +-5 keep the sigmoids and adversarial weights from saturating,
    # so the loss derivatives are checked too
    model.entity_emb *= 0.1
    model.rel_emb *= 0.05
    reps = rgcn_forward(model.layers, g, model.entity_emb[g.node_ids].astype(np.float64))
    triples = np.concatenate([g.negatives.positives, g.negatives.negatives.reshape(-1, 3)])
    scores = rgcn_score(reps, model.rel_emb, triples)
    assert np.abs(scores).max() <= 5.0, np.abs(scores).max()
    spec = LossSpec(loss_kind, margin=1.0)
    _, grads = rgcn_loss_and_grad(model, g, None, spec)
    checked = 0
    for table, (ids, rows) in grads.items():
        for k in range(min(2, len(ids))):
            coord = np.unravel_index(rng.integers(0, rows[k].size), rows[k].shape)
            numeric = fd_rgcn(model, g, spec, table, int(ids[k]), coord)
            analytic = rows[k][coord]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            assert rel < 1e-3, (table, ids[k], coord, analytic, numeric)
            checked += 1
    assert checked >= 5


def test_scorer_covers_all_entities(toy_kg):
    _, kg = toy_kg
    model = init_rgcn(kg.n_entities, kg.n_relations, dim=4, n_bases=2, seed=13)
    scorer = RGCNScorer(model, full_graph(kg))
    from kgembed.sampling import HEAD, TAIL

    queries = kg.train[:3]
    for slot in (HEAD, TAIL):
        m = scorer.score_candidates(queries, slot)
        assert m.shape == (3, kg.n_entities)
        # matrix column equals explicit decoder score
        for e in range(kg.n_entities):
            probe = queries.copy()
            probe[:, 0 if slot == HEAD else 2] = e
            expect = rgcn_score(scorer.encoded, model.rel_emb, probe)
            assert np.array_equal(m[:, e], expect)
        assert scorer.score_candidates(queries[:0], slot).shape == (0, kg.n_entities)


# --- ranking ---------------------------------------------------------------


def rgcn_oracle_ranks(encoded, rel_emb, kg, queries, slot, filters):
    """Filtered mid-ranks from one per-triple rgcn_score call per candidate;
    known completions are scanned from the raw splits (``filters`` is not read)."""
    from kgembed.sampling import TAIL

    ranks = []
    for h, r, t in queries.tolist():
        target = t if slot == TAIL else h
        known = known_completions(kg, h, r, t, slot)
        scores = {}
        for e in range(kg.n_entities):
            triple = [h, r, e] if slot == TAIL else [e, r, t]
            scores[e] = rgcn_score(encoded, rel_emb, np.array([triple]))[0]
        kept = [s for e, s in scores.items() if e == target or e not in known]
        greater = sum(s > scores[target] for s in kept)
        equal = sum(s == scores[target] for s in kept)
        ranks.append(1 + greater + equal // 2)
    return ranks


@pytest.mark.parametrize("seed", [0, 1, 2, "zero-decoder"])
def test_scorer_ranks_match_per_triple_oracle(seed):
    from kgembed.evaluate import build_filter_sets, ranks_for_queries
    from kgembed.sampling import HEAD, TAIL

    rng = np.random.default_rng(30 if seed == "zero-decoder" else seed)
    _, kg = random_graph_kg(rng, n_entities=14, n_triples=45)
    model = init_rgcn(kg.n_entities, kg.n_relations, dim=5, n_bases=2,
                      seed=3 if seed == "zero-decoder" else seed)
    if seed == "zero-decoder":
        model.rel_emb[...] = 0.0  # every candidate ties with the target
    scorer = RGCNScorer(model, full_graph(kg, n_neg=0))
    encoded = rgcn_forward(model.layers, full_graph(kg), model.entity_emb.astype(np.float64))
    filters = build_filter_sets(kg)
    queries = np.concatenate([kg.train[:6], kg.test])
    for slot in (HEAD, TAIL):
        got = ranks_for_queries(scorer, queries, slot, filters).tolist()
        assert got == rgcn_oracle_ranks(encoded, model.rel_emb, kg, queries, slot, filters), slot


@pytest.mark.parametrize("shape", [(9,), (9, 4), (9, 3, 3)])
def test_scatter_add_bitwise_equals_add_at(monkeypatch, shape):
    monkeypatch.setattr(models, "_SCATTER_CHUNK_ELEMS", 7)  # chunks smaller than some rows
    rng = np.random.default_rng(36)
    index = rng.integers(0, shape[0], 40)
    rows = rng.normal(size=(40,) + shape[1:]) * 10.0 ** rng.integers(-8, 8, (40,) + shape[1:])
    expected = rng.normal(size=shape)
    out = expected.copy()
    np.add.at(expected, index, rows)
    scatter_add(out, index, rows)
    assert out.tobytes() == expected.tobytes()


def masked_forward(layers, graph, x):
    """Reference layer loop: one boolean mask over all edges per relation."""
    src, rel, dst = graph.edges[:, 0], graph.edges[:, 1], graph.edges[:, 2]
    caches = []
    for layer in layers:
        basis, coeff = layer.basis.astype(np.float64), layer.coeff.astype(np.float64)
        agg = np.zeros((x.shape[0], basis.shape[2]))
        masks = []
        for r in np.unique(rel):
            mask = rel == r
            w_r = np.einsum("b,bio->io", coeff[r], basis)
            np.add.at(agg, dst[mask], (x[src[mask]] @ w_r) * graph.edge_norm[mask][:, None])
            masks.append((r, mask, w_r))
        pre = agg + x @ layer.self_weight.astype(np.float64)
        caches.append((x, pre, masks))
        x = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return x, caches


def masked_backward(layers, graph, caches, d_x):
    src, dst = graph.edges[:, 0], graph.edges[:, 2]
    grads = []
    for layer, (x, pre, masks) in reversed(list(zip(layers, caches))):
        d_pre = d_x * (pre > 0) if layer.activation == "relu" else d_x
        basis, coeff = layer.basis.astype(np.float64), layer.coeff.astype(np.float64)
        g_basis, g_coeff = np.zeros_like(basis), np.zeros_like(coeff)
        d_in = d_pre @ layer.self_weight.astype(np.float64).T
        for r, mask, w_r in masks:
            d_msg = d_pre[dst[mask]] * graph.edge_norm[mask][:, None]
            g_wr = x[src[mask]].T @ d_msg
            g_coeff[r] = np.einsum("bio,io->b", basis, g_wr)
            g_basis += coeff[r][:, None, None] * g_wr
            np.add.at(d_in, src[mask], d_msg @ w_r.T)
        grads.insert(0, {"basis": g_basis, "coeff": g_coeff, "self": x.T @ d_pre})
        d_x = d_in
    return d_x, grads


@pytest.mark.parametrize("n_edges", [0, 60])
def test_forward_and_backward_equal_the_masked_reference_bitwise(n_edges):
    """Relations interleave along the edge list, and relation 3 has no edge."""
    rng = np.random.default_rng(41)
    n_nodes, d = 9, 5
    src, dst = rng.integers(n_nodes, size=(2, n_edges))
    edges = np.stack([src, rng.choice([0, 1, 2, 4], size=n_edges), dst], 1)
    graph = GraphBatch(np.arange(n_nodes), edges, rng.uniform(0.1, 1.0, n_edges), None)
    model = init_rgcn(n_nodes, 5, dim=d, n_bases=2, seed=4)
    x0 = rng.normal(size=(n_nodes, d))
    d_out = rng.normal(size=(n_nodes, d))

    out, caches = rgcn_forward(model.layers, graph, x0, return_cache=True)
    want, want_caches = masked_forward(model.layers, graph, x0)
    assert out.tobytes() == want.tobytes()
    assert rgcn_forward(model.layers, graph, x0).tobytes() == want.tobytes()

    d_x, grads = rgcn_backward(model.layers, graph, caches, d_out)
    want_d_x, want_grads = masked_backward(model.layers, graph, want_caches, d_out)
    assert d_x.tobytes() == want_d_x.tobytes()
    for got, expected in zip(grads, want_grads):
        for name in ("basis", "coeff", "self"):
            assert got[name].tobytes() == expected[name].tobytes(), name


def test_blocked_messages_equal_the_masked_reference_bitwise(monkeypatch):
    """Blocks of 4 edges: relation 0 spans blocks of 4, 4 and 5 (its 1-edge tail
    joins the block before it), relation 1 blocks of 4, 4 and 2, relation 2 one edge."""
    monkeypatch.setattr(gnn, "_MESSAGE_BLOCK", 4)
    assert list(gnn._blocks(3, 16)) == [(3, 7), (7, 11), (11, 16)]
    assert list(gnn._blocks(0, 10)) == [(0, 4), (4, 8), (8, 10)]
    assert list(gnn._blocks(5, 6)) == [(5, 6)]
    rng = np.random.default_rng(44)
    n_nodes, d = 7, 6
    rel = rng.permutation(np.repeat([0, 1, 2], [13, 10, 1]))
    src, dst = rng.integers(n_nodes, size=(2, len(rel)))
    edges = np.stack([src, rel, dst], 1)
    graph = GraphBatch(np.arange(n_nodes), edges, rng.uniform(0.1, 1.0, len(rel)), None)
    model = init_rgcn(n_nodes, 3, dim=d, n_bases=2, seed=5)
    x0 = rng.normal(size=(n_nodes, d))
    d_out = rng.normal(size=(n_nodes, d))

    out, caches = rgcn_forward(model.layers, graph, x0, return_cache=True)
    want, want_caches = masked_forward(model.layers, graph, x0)
    assert out.tobytes() == want.tobytes()
    d_x, grads = rgcn_backward(model.layers, graph, caches, d_out)
    want_d_x, want_grads = masked_backward(model.layers, graph, want_caches, d_out)
    assert d_x.tobytes() == want_d_x.tobytes()
    for got, expected in zip(grads, want_grads):
        for name in ("basis", "coeff", "self"):
            assert got[name].tobytes() == expected[name].tobytes(), name


def test_forward_peak_memory_stays_within_a_few_message_blocks():
    """One relation of 40,000 edges at width 32: its messages at once would take
    20 MB of gathered rows and products, one block of them takes 1 MiB."""
    import tracemalloc

    n_nodes, n_edges, d = 200, 40_000, 32
    rng = np.random.default_rng(43)
    src, dst = rng.integers(n_nodes, size=(2, n_edges))
    edges = np.stack([src, np.zeros(n_edges, dtype=np.int64), dst], 1)
    graph = GraphBatch(np.arange(n_nodes), edges, np.ones(n_edges), None)
    model = init_rgcn(n_nodes, 1, dim=d, n_bases=1, seed=0)
    x0 = model.entity_emb.astype(np.float64)
    tracemalloc.start()
    try:
        rgcn_forward(model.layers, graph, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * gnn._MESSAGE_BLOCK * d * 8, peak


def test_forward_peak_memory_does_not_grow_with_relations():
    """20,000 edges over 2 or 200 relations; a boolean mask per relation costs 20 KB."""
    import tracemalloc

    n_nodes, n_edges = 200, 20_000
    rng = np.random.default_rng(42)
    ends = rng.integers(n_nodes, size=(2, n_edges))

    def peak(n_rel):
        edges = np.stack([ends[0], np.arange(n_edges) % n_rel, ends[1]], 1)
        graph = GraphBatch(np.arange(n_nodes), edges, np.ones(n_edges), None)
        model = init_rgcn(n_nodes, n_rel, dim=2, n_bases=1, seed=0)
        x0 = model.entity_emb.astype(np.float64)
        tracemalloc.start()
        try:
            rgcn_forward(model.layers, graph, x0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(2), peak(200)
    assert many - few <= 198 * 1024, (few, many)
