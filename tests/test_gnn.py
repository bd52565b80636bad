import numpy as np
import pytest

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
from kgembed.models import init_params, score
from kgembed.sampling import GraphBatch, NegBatch, full_graph, sample_graph

from conftest import make_kg, random_label_triples
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
        node_norm=np.ones(n_nodes),
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
        node_norm=g.node_norm[inv],
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
        node_norm=g.node_norm,
        negatives=None,
    )
    assert np.allclose(rgcn_forward(model.layers, doubled, x0), base, atol=1e-9)


def test_dimension_mismatch_errors():
    model = init_rgcn(5, 2, dim=4, n_bases=1, seed=0)
    with pytest.raises(ValueError, match="rows"):
        rgcn_forward(model.layers, empty_graph(3), np.zeros((5, 4)))
    with pytest.raises(ValueError, match="width"):
        rgcn_forward(model.layers, empty_graph(3), np.zeros((3, 7)))


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
    def set_f64(m):
        m.entity_emb = m.entity_emb.astype(np.float64)
        m.rel_emb = m.rel_emb.astype(np.float64)
        for l in m.layers:
            l.basis = l.basis.astype(np.float64)
            l.coeff = l.coeff.astype(np.float64)
            l.self_weight = l.self_weight.astype(np.float64)
        return m

    m = set_f64(model.copy())
    t = m.tables()[table]
    idx = (row,) + tuple(coord)
    base = t[idx]
    t[idx] = base + step
    f_plus, _ = rgcn_loss_and_grad(m, graph, None, spec)
    t[idx] = base - step
    f_minus, _ = rgcn_loss_and_grad(m, graph, None, spec)
    t[idx] = base
    return (f_plus - f_minus) / (2 * step)


@pytest.mark.parametrize("loss_kind", ["bce", "margin"])
def test_encoder_decoder_gradient_matches_fd(loss_kind):
    rng = np.random.default_rng(10)
    _, kg = random_graph_kg(rng, n_entities=10, n_triples=30)
    g = sample_graph(kg, 15, 2, seed=11)
    model = init_rgcn(kg.n_entities, kg.n_relations, dim=4, n_bases=2, seed=12)
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
