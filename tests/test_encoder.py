"""Encoder semantics: per-node attention and fusion contracts, parity of
the fused tape ops with composable ops, scalar-oracle agreement, and
structural invariants."""

import contextlib

import numpy as np
import pytest

import scalar_oracle as oracle
import tape_reference as R
from conftest import (TOY_TRIPLES, relation_rows, to_oracle_params, toy_config,
                      toy_params)
from kgar import encoder as E
from kgar import tensor as T
from kgar.data import KnowledgeGraph
from kgar.tensor import NumericFailure, Parameter, Tensor


# ---------------------------------------------------------------------------
# attention of one node, through the conv layer's ops


def attention(H, W, node, neighbors, slope=0.2):
    """LeakyReLU(<W^T h_node, W^T h_j>) softmaxed over the neighbors j, as
    one attention group of edge_inner_product and segment_softmax: a graph
    of one relation whose triples are (j, 0, node)."""
    g = KnowledgeGraph([(j, 0, node) for j in neighbors], len(H), 1)
    hw = T.matmul(Tensor(H), Tensor(W))
    scores = E.edge_inner_product(hw, g)
    return T.segment_softmax(T.leaky_relu(scores, slope), [0]).values[:, 0]


def test_attention_identical_states_split_evenly():
    H = np.tile([[1.0, 2.0, 3.0]], (3, 1))
    alpha = attention(H, np.eye(3), 0, [1, 2])
    np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-15)


def test_attention_singleton_is_one():
    H = np.random.default_rng(0).standard_normal((4, 3))
    alpha = attention(H, np.eye(3), 2, [3])
    assert alpha.shape == (1,) and alpha[0] == 1.0


def test_attention_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    H = rng.standard_normal((5, 4))
    neighbors = [1, 3, 4]
    got = attention(H, np.eye(4), 0, neighbors, slope=0.2)
    expected = oracle.attention_weights([row.tolist() for row in H], 0,
                                        neighbors, 0.2)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_attention_empty_set_rejected():
    # a group start past the last score would be an empty neighbor set
    with pytest.raises(T.ShapeError):
        T.segment_softmax(Tensor([[1.0], [2.0]]), [0, 2])


def test_attention_group_sums_to_one_on_toy(toy_graph):
    # the same segment softmax the conv layer uses, over every
    # (relation, node) group of both directions
    rng = np.random.default_rng(2)
    H = Tensor(rng.standard_normal((toy_graph.num_entities, 6)))
    W = Tensor(rng.standard_normal((6, 6)))
    hw = T.matmul(H, W)
    scores = T.leaky_relu(E.edge_inner_product(hw, toy_graph), 0.2)
    for direction in ("forward", "backward"):
        plan = toy_graph.plan(direction)
        alpha = T.segment_softmax(T.gather_rows(scores, plan.order),
                                  plan.seg_starts)
        sums = np.add.reduceat(alpha.values[:, 0], plan.seg_starts)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# fusion readout of one node, through gated_neighbor_sum


def fuse(H, graph, gates):
    """The gated neighbor sums of every node, both directions."""
    gates = Tensor(np.asarray(gates, dtype=np.float64)[:, None])
    return E.gated_neighbor_sum(Tensor(H), gates, graph).values


def test_fuse_single_edge_unit_gate():
    g = KnowledgeGraph([(0, 0, 1)], 2, 1)
    H = np.array([[3.0, -1.0], [0.5, 2.0]])
    np.testing.assert_array_equal(fuse(H, g, [1.0]), H[::-1])


def test_fuse_all_gates_zero(toy_graph):
    H = np.random.default_rng(3).standard_normal((6, 4))
    np.testing.assert_array_equal(fuse(H, toy_graph, [0.0, 0.0, 0.0]),
                                  np.zeros((6, 4)))


def test_fuse_three_edges_matches_weighted_sum():
    # node 1 has in-edges (0,rel0), (2,rel0), (4,rel1) and no out-edge
    g = KnowledgeGraph([(0, 0, 1), (2, 0, 1), (4, 1, 1)], 6, 3)
    H = np.random.default_rng(4).standard_normal((6, 5))
    gates = [0.5, 1.0, 2.0]
    got = fuse(H, g, gates)[1]
    expected = 0.5 * H[0] + 0.5 * H[2] + 1.0 * H[4]
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_fuse_zero_degree_node():
    g = KnowledgeGraph([(0, 0, 1)], 3, 1)
    H = np.ones((3, 4))
    np.testing.assert_array_equal(fuse(H, g, [1.0])[2], np.zeros(4))


# ---------------------------------------------------------------------------
# fused ops match composable-op routes (values and gradients)


def grads_of(loss_fn, params):
    for p in params:
        p.grad = None
    with T.Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    return loss.item(), [np.array(p.grad) for p in params]


def test_edge_inner_product_parity(toy_graph):
    rng = np.random.default_rng(5)
    hw = Parameter("hw", rng.standard_normal((6, 4)))

    def fused():
        return R.sum_squares(E.edge_inner_product(hw, toy_graph))

    def composed():
        d = T.gather_rows(hw, toy_graph.tails)
        s = T.gather_rows(hw, toy_graph.heads)
        return R.sum_squares(R.row_sum(R.mul(d, s)))

    v1, (g1,) = grads_of(fused, [hw])
    v2, (g2,) = grads_of(composed, [hw])
    assert v1 == pytest.approx(v2, abs=1e-12)
    np.testing.assert_allclose(g1, g2, atol=1e-12)


def aggregate_parity(graph, direction, seed):
    """The fused directional update's value and gradients against the
    composed route, ReLU(messages + self_pre)."""
    rng = np.random.default_rng(seed)
    n, d, b, nr = graph.num_entities, 4, 2, graph.num_relations
    h = Parameter("h", rng.standard_normal((n, d)))
    plan = graph.plan(direction)
    q = Parameter("q", rng.standard_normal((nr * d, d // b)))
    # the composed route gives each relation its own rows of q
    qs = [Parameter(f"q{r}", q.values[r * d:(r + 1) * d]) for r in range(nr)]
    alpha_vals = rng.random((plan.src.size, 1))
    self_pre = Parameter("self_pre", rng.standard_normal((n, d)))

    def fused():
        alpha = Tensor(alpha_vals)
        out = E.attention_relational_aggregate(h, alpha, plan, q, b, self_pre,
                                               layer=0, direction=direction)
        return R.sum_squares(out)

    def composed():
        total = None
        for r in range(nr):
            lo, hi = plan.rel_starts[r], plan.rel_starts[r + 1]
            if lo == hi:
                continue
            xs = T.gather_rows(h, plan.src[lo:hi])
            ys = R.block_matmul(xs, qs[r], b)
            w = Tensor(alpha_vals[lo:hi])
            part = R.scatter_add_rows(R.mul(ys, w), plan.dst[lo:hi], n)
            total = part if total is None else T.add(total, part)
        return R.sum_squares(R.relu(T.add(total, self_pre)))

    v1, (gh1, gq1, gs1) = grads_of(fused, [h, q, self_pre])
    v2, (gh2, gs2, *gqs) = grads_of(composed, [h, self_pre] + qs)
    assert v1 == pytest.approx(v2, abs=1e-10)
    np.testing.assert_allclose(gh1, gh2, atol=1e-12)
    np.testing.assert_allclose(gs1, gs2, atol=1e-12)
    # the composed route leaves a relation without edges with no gradient
    gqs = [g if g.ndim else np.zeros((d, d // b)) for g in gqs]
    np.testing.assert_allclose(gq1, np.concatenate(gqs), atol=1e-12)


def test_attention_aggregate_parity(toy_graph):
    aggregate_parity(toy_graph, "forward", seed=6)


def test_attention_aggregate_alpha_gradient(toy_graph):
    rng = np.random.default_rng(7)
    plan = toy_graph.plan("forward")
    h = Tensor(rng.standard_normal((6, 4)))
    q = Parameter("q", rng.standard_normal((3 * 4, 2)))
    alpha = Parameter("alpha", rng.random((plan.src.size, 1)))
    self_pre = Tensor(rng.standard_normal((6, 4)))

    def loss():
        return R.sum_squares(E.attention_relational_aggregate(
            h, alpha, plan, q, 2, self_pre, layer=0, direction="forward"))

    assert R.grad_check(loss, [alpha]) < 1e-6


def fused_update_inputs(graph, seed):
    """h, alpha, the forward plan, relation blocks and self_pre for a
    width-4, two-block directional update on `graph`, all Parameters."""
    rng = np.random.default_rng(seed)
    n, nr = graph.num_entities, graph.num_relations
    plan = graph.plan("forward")
    return (Parameter("h", rng.standard_normal((n, 4))),
            Parameter("alpha", rng.random((plan.src.size, 1))),
            plan,
            Parameter("q", rng.standard_normal((nr * 4, 2))),
            Parameter("self_pre", rng.standard_normal((n, 4))))


@pytest.mark.parametrize("rate", [0.0, 0.5])
def test_fused_update_is_bit_equal_to_the_composed_ops(toy_graph, rate):
    # the messages are summed in plan order first and self_pre is added
    # after, then the conv dropout and the ReLU follow, as separate add,
    # dropout and ReLU ops would do it; the mask is the draw T.dropout
    # makes from the same rng state
    h, alpha, plan, q, self_pre = fused_update_inputs(toy_graph, 30)
    mask = T.dropout_mask(self_pre.shape, rate, True,
                          np.random.default_rng(31))
    assert (mask is None) == (rate == 0.0)
    got = E.attention_relational_aggregate(h, alpha, plan, q, 2, self_pre,
                                           mask, layer=0,
                                           direction="forward").values
    msgs = np.zeros((plan.src.size, 4))
    for r in range(toy_graph.num_relations):
        lo, hi = plan.rel_starts[r], plan.rel_starts[r + 1]
        xs = T.gather_rows(h, plan.src[lo:hi])
        ys = R.block_matmul(xs, Tensor(q.values[r * 4:(r + 1) * 4]), 2)
        msgs[lo:hi] = R.mul(ys, Tensor(alpha.values[lo:hi])).values
    agg = R.scatter_add_rows(Tensor(msgs), plan.dst, toy_graph.num_entities)
    expected = R.relu(T.dropout(T.add(agg, self_pre), rate, True,
                                np.random.default_rng(31))).values
    assert (got > 0).any() and (got == 0).any()
    np.testing.assert_array_equal(got, expected)


def test_fused_update_grad_check_under_a_mask(toy_graph):
    h, alpha, plan, q, self_pre = fused_update_inputs(toy_graph, 32)
    mask = T.dropout_mask(self_pre.shape, 0.5, True, np.random.default_rng(33))
    assert mask[0].any() and not mask[0].all()

    def loss():
        return R.sum_squares(E.attention_relational_aggregate(
            h, alpha, plan, q, 2, self_pre, mask, layer=0,
            direction="forward"))

    assert R.grad_check(loss, [h, alpha, q, self_pre]) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fused_update_names_the_first_non_finite_node(toy_graph):
    h, alpha, plan, q, self_pre = fused_update_inputs(toy_graph, 34)
    self_pre.values[3, 1] = np.nan
    self_pre.values[5, 0] = np.nan
    with pytest.raises(NumericFailure) as info:
        E.attention_relational_aggregate(h, alpha, plan, q, 2, self_pre,
                                         layer=1, direction="backward")
    assert str(info.value) == ("non-finite hidden state (layer 1, direction "
                               "backward, node 3)")


def test_directional_update_is_one_tape_op(toy_graph):
    # with the attention dropout off, a training pass records the score
    # gather, the softmax and the fused update: the message sum, the self
    # term, the conv dropout and the ReLU keep no closure of their own
    cfg = toy_config(dropout_attention=0.0, dropout_conv=0.5)
    params = toy_params(cfg, seed=35)
    lw = params.layers[0]
    h = params.embedding
    scores = T.leaky_relu(E.edge_inner_product(T.matmul(h, lw.att_W),
                                               toy_graph), cfg.leaky_slope)
    self_pre = T.matmul(h, lw.self_W)
    with T.Tape() as tape:
        out = E.conv_layer_forward(h, toy_graph, lw, cfg, "forward", True,
                                   np.random.default_rng(36), scores=scores,
                                   self_pre=self_pre, layer=0)
        assert len(tape._steps) == 3
        tape.backward(R.sum_squares(out))
    assert self_pre.grad is not None and lw.blocks["forward"].grad.any()


def test_gated_neighbor_sum_parity(toy_graph):
    rng = np.random.default_rng(8)
    h = Parameter("h", rng.standard_normal((6, 4)))
    gates = Parameter("g", rng.standard_normal((3, 1)))

    def fused():
        return R.sum_squares(E.gated_neighbor_sum(h, gates, toy_graph))

    def composed():
        # each triple's gated head row to its tail, and tail row to its head
        w = T.gather_rows(gates, toy_graph.rels)
        total = None
        for src, dst in ((toy_graph.heads, toy_graph.tails),
                         (toy_graph.tails, toy_graph.heads)):
            xs = T.gather_rows(h, src)
            part = R.scatter_add_rows(R.mul(xs, w), dst, 6)
            total = part if total is None else T.add(total, part)
        return R.sum_squares(total)

    v1, grads1 = grads_of(fused, [h, gates])
    v2, grads2 = grads_of(composed, [h, gates])
    assert v1 == pytest.approx(v2, abs=1e-10)
    for g1, g2 in zip(grads1, grads2):
        np.testing.assert_allclose(g1, g2, atol=1e-12)


def test_gated_sum_matches_per_node_fuse(toy_graph):
    # vectorized fusion readout == per-triple sums, both directions
    rng = np.random.default_rng(9)
    H = rng.standard_normal((6, 4))
    gates = rng.standard_normal(3)
    expected = np.zeros((6, 4))
    for h, r, t in TOY_TRIPLES:
        expected[t] += gates[r] * H[h]
        expected[h] += gates[r] * H[t]
    np.testing.assert_allclose(fuse(H, toy_graph, gates), expected,
                               atol=1e-10)


# ---------------------------------------------------------------------------
# incidence walks against per-triple references

# a self-loop on node 2, (0, 1, 3) twice, nodes 5 and 6 on no triple; node
# 1's run of six positions (a self-loop among them) is cut by tiles of 1,
# 2 and 3 at different offsets
WALK_TRIPLES = [(0, 1, 3), (2, 0, 2), (1, 0, 0), (0, 1, 3), (3, 2, 1),
                (1, 1, 4), (4, 0, 1), (1, 2, 1)]
WALK_GRAPHS = {"walk": (WALK_TRIPLES, 7, 3), "empty": ([], 4, 2)}


@pytest.fixture(params=sorted(WALK_GRAPHS))
def walk_graph(request):
    triples, n, r = WALK_GRAPHS[request.param]
    return KnowledgeGraph(triples, n, r)


def test_incidence_lists_both_ends_by_node(walk_graph):
    inc = walk_graph.incidence()
    triples = walk_graph.triple_array().tolist()
    expected = {}
    for k, (h, _, t) in enumerate(triples):
        expected.setdefault(t, []).append((h, k))
    for k, (h, _, t) in enumerate(triples):
        expected.setdefault(h, []).append((t, k))
    assert inc.node.tolist() == sorted(inc.node.tolist())
    runs = {}
    for node, nbr, k in zip(inc.node.tolist(), inc.nbr.tolist(),
                            inc.triple.tolist()):
        runs.setdefault(node, []).append((nbr, k))
    assert runs == expected
    assert walk_graph.incidence() is inc


def weighted_sum(out, weights):
    """<out, weights> as a scalar tape value, so the backward receives
    `weights` as the output gradient."""
    return R.sum_all(R.mul(out, Tensor(weights)))


@pytest.mark.parametrize("tile", [1, 2, 3])
def test_fusion_walk_matches_per_triple_reference(walk_graph, monkeypatch,
                                                  tile):
    monkeypatch.setattr(T, "_TILE", tile)
    n, nr = walk_graph.num_entities, walk_graph.num_relations
    rng = np.random.default_rng(25)
    H, G = rng.standard_normal((2, n, 3))
    gv = rng.standard_normal(nr)
    h, gates = Parameter("h", H), Parameter("g", gv[:, None])
    f_ref, dh_ref, dg_ref = np.zeros((n, 3)), np.zeros((n, 3)), np.zeros(nr)
    for hd, r, tl in walk_graph.triple_array().tolist():
        f_ref[tl] += gv[r] * H[hd]
        f_ref[hd] += gv[r] * H[tl]
        dh_ref[hd] += gv[r] * G[tl]
        dh_ref[tl] += gv[r] * G[hd]
        dg_ref[r] += H[hd] @ G[tl] + H[tl] @ G[hd]
    with T.Tape() as tape:
        f = E.gated_neighbor_sum(h, gates, walk_graph)
        loss = weighted_sum(f, G)
    tape.backward(loss)
    np.testing.assert_allclose(f.values, f_ref, atol=1e-12)
    np.testing.assert_allclose(h.grad, dh_ref, atol=1e-12)
    np.testing.assert_allclose(gates.grad[:, 0], dg_ref, atol=1e-12)


@pytest.mark.parametrize("tile", [1, 2, 3])
def test_edge_score_walk_matches_per_triple_reference(walk_graph,
                                                      monkeypatch, tile):
    monkeypatch.setattr(T, "_TILE", tile)
    triples = walk_graph.triple_array().tolist()
    rng = np.random.default_rng(26)
    V = rng.standard_normal((walk_graph.num_entities, 3))
    G = rng.standard_normal((len(triples), 1))
    hw = Parameter("hw", V)
    e_ref, dv_ref = np.zeros((len(triples), 1)), np.zeros_like(V)
    for k, (hd, _, tl) in enumerate(triples):
        e_ref[k] = V[tl] @ V[hd]
        dv_ref[tl] += G[k] * V[hd]
        dv_ref[hd] += G[k] * V[tl]
    with T.Tape() as tape:
        e = E.edge_inner_product(hw, walk_graph)
        loss = weighted_sum(e, G)
    tape.backward(loss)
    np.testing.assert_allclose(e.values, e_ref, atol=1e-12)
    np.testing.assert_allclose(hw.grad, dv_ref, atol=1e-12)


@pytest.mark.parametrize("tile", [1, 2, 3])
def test_incidence_walk_grad_checks(monkeypatch, tile):
    monkeypatch.setattr(T, "_TILE", tile)
    g = KnowledgeGraph(WALK_TRIPLES, 7, 3)
    rng = np.random.default_rng(27)
    h = Parameter("h", rng.standard_normal((7, 3)))
    gates = Parameter("g", rng.standard_normal((3, 1)))

    def fusion():
        return R.sum_squares(E.gated_neighbor_sum(h, gates, g))

    def edge_scores():
        return R.sum_squares(E.edge_inner_product(h, g))

    assert R.grad_check(fusion, [h, gates]) < 1e-6
    assert R.grad_check(edge_scores, [h]) < 1e-6


# ---------------------------------------------------------------------------
# conv layer contracts


def one_node_setup(self_w, blocks_value, embed):
    """Single-layer weights over a 2-node, 1-relation graph."""
    from kgar.model import LayerWeights
    d = embed.shape[1]
    att = Parameter("a", np.eye(d))
    self_p = Parameter("s", self_w)
    blocks = {dir_: Parameter(f"q{dir_}", blocks_value.copy())
              for dir_ in ("forward", "backward")}
    return LayerWeights(att, self_p, blocks)


def conv(h, g, lw, cfg, direction):
    """One directional pass of layer 0 with its shared inputs, the triple
    scores and the self projection, computed here."""
    hw = T.matmul(h, lw.att_W)
    scores = T.leaky_relu(E.edge_inner_product(hw, g), cfg.leaky_slope)
    return E.conv_layer_forward(h, g, lw, cfg, direction, scores=scores,
                                self_pre=T.matmul(h, lw.self_W), layer=0)


def test_conv_self_loop_only():
    g = KnowledgeGraph([], 1, 1)
    h = Tensor(np.array([[1.0, -2.0, 3.0, -4.0]]))
    lw = one_node_setup(np.eye(4), np.zeros((4, 2)), h.values)
    cfg = toy_config(embed_dim=4, num_layers=1)
    out = conv(h, g, lw, cfg, "forward")
    np.testing.assert_array_equal(out.values, np.maximum(h.values, 0.0))


def test_edgeless_graph_runs_the_self_loop_recurrence():
    # with no edges each fused op walks no tile: every direction of every
    # layer gives ReLU(h W_self), and the fusion readout sums nothing
    g = KnowledgeGraph([], 5, 2)
    cfg = toy_config(embed_dim=4, num_layers=2)
    params = toy_params(cfg, num_entities=5, num_relations=2)
    h = params.embedding.values
    for lw in params.layers:
        h = 2.0 * np.maximum(h @ lw.self_W.values, 0.0)
    assert h.any()
    for tape in (contextlib.nullcontext(), T.Tape()):
        with tape:
            np.testing.assert_array_equal(E.conv_stack(g, params, cfg).values,
                                          h)
            np.testing.assert_array_equal(E.encode(g, params, cfg).values,
                                          np.zeros((5, 4)))


def test_conv_one_neighbor_identity_weights():
    g = KnowledgeGraph([(0, 0, 1)], 2, 1)
    rng = np.random.default_rng(10)
    h = Tensor(rng.standard_normal((2, 4)))
    # stacked identity blocks assemble to I, self weight zero
    identity_blocks = np.vstack([np.eye(2), np.eye(2)])
    lw = one_node_setup(np.zeros((4, 4)), identity_blocks, h.values)
    cfg = toy_config(embed_dim=4, num_layers=1)
    out = conv(h, g, lw, cfg, "forward")
    np.testing.assert_allclose(out.values[1], np.maximum(h.values[0], 0.0),
                               atol=1e-12)
    np.testing.assert_array_equal(out.values[0], np.zeros(4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_hidden_state_diagnosed(toy_graph):
    cfg = toy_config()
    params = toy_params(cfg)
    params.layers[0].self_W.values[:] = np.inf
    with pytest.raises(NumericFailure, match=r"layer 0.*node"):
        E.encode(toy_graph, params, cfg)


def test_encoder_settings_validation():
    with pytest.raises(ValueError, match="num_blocks"):
        toy_config(embed_dim=10, num_blocks=3)
    with pytest.raises(ValueError, match="num_layers"):
        toy_config(num_layers=0)
    with pytest.raises(ValueError, match="dropout"):
        toy_config(dropout_conv=1.0)
    with pytest.raises(ValueError, match="leaky"):
        toy_config(leaky_slope=0.0)


def test_training_dropout_needs_rng(toy_graph):
    cfg = toy_config(dropout_conv=0.5)
    params = toy_params(cfg)
    with pytest.raises(ValueError, match="rng"):
        E.encode(toy_graph, params, cfg, training=True)


# ---------------------------------------------------------------------------
# full encoder vs the straight-line scalar oracle


def test_encode_matches_scalar_oracle(toy_graph):
    cfg = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    params = toy_params(cfg, seed=11)
    got = E.encode(toy_graph, params, cfg).values
    expected = oracle.encode(TOY_TRIPLES, 6, 3, to_oracle_params(params, 2), 2)
    np.testing.assert_allclose(got, np.array(expected), atol=1e-8)


def test_encode_single_layer_matches_oracle(toy_graph):
    cfg = toy_config(embed_dim=6, num_layers=1, num_blocks=3)
    params = toy_params(cfg, seed=12)
    got = E.encode(toy_graph, params, cfg).values
    expected = oracle.encode(TOY_TRIPLES, 6, 3, to_oracle_params(params, 3), 3)
    np.testing.assert_allclose(got, np.array(expected), atol=1e-8)


def test_encode_zero_weights_degenerate(toy_graph):
    # zero blocks, identity self weight: each directional pass reduces to
    # relu(embedding) and their sum doubles it (the self term appears in
    # both directions), then the fusion gates route plain neighbor sums
    cfg = toy_config(embed_dim=4, num_layers=1)
    params = toy_params(cfg, seed=13)
    for direction in ("forward", "backward"):
        relation_rows(params, 0, direction)[:] = 0.0
    params.layers[0].self_W.values[:] = np.eye(4)
    got = E.encode(toy_graph, params, cfg).values
    h1 = 2.0 * np.maximum(params.embedding.values, 0.0)
    expected = np.zeros_like(h1)
    gates = params.gates.values[:, 0]
    for h, r, t in TOY_TRIPLES:
        expected[t] += gates[r] * h1[h]
        expected[h] += gates[r] * h1[t]
    np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# structural invariants


def test_permutation_equivariance(toy_graph):
    cfg = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    params = toy_params(cfg, seed=14)
    f1 = E.encode(toy_graph, params, cfg).values

    rng = np.random.default_rng(15)
    perm = rng.permutation(6)
    permuted_triples = [(int(perm[h]), r, int(perm[t]))
                        for h, r, t in TOY_TRIPLES]
    g2 = KnowledgeGraph(permuted_triples, 6, 3)
    params2 = toy_params(cfg, seed=14)
    params2.embedding.values[perm] = params.embedding.values
    f2 = E.encode(g2, params2, cfg).values
    np.testing.assert_allclose(f2[perm], f1, atol=1e-9)


def zero_relation(params, rel, zero_gate):
    for layer in range(len(params.layers)):
        for direction in ("forward", "backward"):
            relation_rows(params, layer, direction)[rel] = 0.0
    if zero_gate:
        params.gates.values[rel, 0] = 0.0


def test_relation_ablation_conv_stack(toy_graph):
    # zeroing one relation's blocks makes the conv stack blind to its
    # edges: W_r is the sole carrier of relation identity in the conv
    cfg = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    ablate = 1
    params = toy_params(cfg, seed=16)
    zero_relation(params, ablate, zero_gate=False)
    h_zeroed = E.conv_stack(toy_graph, params, cfg).values

    remaining = [t for t in TOY_TRIPLES if t[1] != ablate]
    g2 = KnowledgeGraph(remaining, 6, 3)
    h_deleted = E.conv_stack(g2, params, cfg).values
    np.testing.assert_allclose(h_zeroed, h_deleted, atol=1e-9)


def test_relation_ablation_full_encoding(toy_graph):
    # the fusion gate also carries relation identity, so the full-encoding
    # equivalence additionally zeroes that relation's gate
    cfg = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    ablate = 0
    params = toy_params(cfg, seed=17)
    zero_relation(params, ablate, zero_gate=True)
    f_zeroed = E.encode(toy_graph, params, cfg).values

    remaining = [t for t in TOY_TRIPLES if t[1] != ablate]
    g2 = KnowledgeGraph(remaining, 6, 3)
    f_deleted = E.encode(g2, params, cfg).values
    np.testing.assert_allclose(f_zeroed, f_deleted, atol=1e-9)


def test_forward_backward_symmetry():
    # symmetric edge set + shared directional weights => h' == h''
    base = [(0, 0, 1), (1, 1, 2), (0, 2, 2), (3, 0, 2)]
    sym = base + [(t, r, h) for h, r, t in base]
    g = KnowledgeGraph(sym, 4, 3)
    cfg = toy_config(embed_dim=6, num_layers=1, num_blocks=3)
    params = toy_params(cfg, seed=18, num_entities=4)
    relation_rows(params, 0, "backward")[:] = relation_rows(
        params, 0, "forward")
    lw = params.layers[0]
    h = params.embedding
    h_fwd = conv(h, g, lw, cfg, "forward")
    h_bwd = conv(h, g, lw, cfg, "backward")
    np.testing.assert_allclose(h_fwd.values, h_bwd.values, atol=1e-9)


def test_each_layer_scores_its_triples_once(toy_graph, monkeypatch):
    # one edge_inner_product per layer, over the triples in file order;
    # each direction's softmax reads that LeakyReLU column gathered into
    # its plan's order
    inner, leaky, softmax = (E.edge_inner_product, T.leaky_relu,
                             T.segment_softmax)
    scored, scores, softmax_inputs = [], [], []

    def spy_inner(hw, graph):
        scored.append(graph)
        return inner(hw, graph)

    def spy_leaky(a, slope):
        scores.append(leaky(a, slope))
        return scores[-1]

    def spy_softmax(a, seg_starts):
        softmax_inputs.append(a.values)
        return softmax(a, seg_starts)

    monkeypatch.setattr(E, "edge_inner_product", spy_inner)
    monkeypatch.setattr(T, "leaky_relu", spy_leaky)
    monkeypatch.setattr(T, "segment_softmax", spy_softmax)
    cfg = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    E.encode(toy_graph, toy_params(cfg, seed=24), cfg)
    assert len(scored) == len(scores) == 2 and len(softmax_inputs) == 4
    assert all(graph is toy_graph for graph in scored)
    for layer, column in enumerate(scores):
        for k, direction in enumerate(("forward", "backward")):
            order = toy_graph.plan(direction).order
            np.testing.assert_array_equal(softmax_inputs[2 * layer + k],
                                          column.values[order])


def test_encoder_grad_check(toy_graph):
    cfg = toy_config(embed_dim=4, num_layers=2, num_blocks=2)
    params = toy_params(cfg, seed=19)

    def loss():
        return R.sum_squares(E.encode(toy_graph, params, cfg))

    assert R.grad_check(loss, params.all_params()) < 1e-4


# ---------------------------------------------------------------------------
# tiles shorter than relations and attention groups

# relation 0 has four edges (a whole number of tiles of 1 or 2), three of
# them into node 1; relation 1 has five, relation 2 one, relation 3 none
SPLIT_TRIPLES = [
    (0, 0, 1), (2, 0, 1), (3, 0, 1), (3, 0, 5), (1, 1, 2),
    (5, 1, 2), (0, 1, 3), (2, 1, 3), (1, 1, 0), (3, 2, 4),
]


@pytest.fixture
def split_graph():
    return KnowledgeGraph(SPLIT_TRIPLES, 6, 4)


@pytest.mark.parametrize("tile", [1, 2])
def test_tiled_encode_matches_scalar_oracle(split_graph, monkeypatch, tile):
    monkeypatch.setattr(T, "_TILE", tile)
    assert np.diff(split_graph.plan("forward").rel_starts).tolist() \
        == [4, 5, 1, 0]
    cfg = toy_config(embed_dim=8, num_layers=2, num_blocks=2)
    params = toy_params(cfg, seed=21, num_relations=4)
    got = E.encode(split_graph, params, cfg).values
    expected = oracle.encode(SPLIT_TRIPLES, 6, 4, to_oracle_params(params, 2),
                             2)
    np.testing.assert_allclose(got, np.array(expected), atol=1e-8)


@pytest.mark.parametrize("tile", [1, 2])
def test_tiled_encoder_grad_check(split_graph, monkeypatch, tile):
    monkeypatch.setattr(T, "_TILE", tile)
    cfg = toy_config(embed_dim=4, num_layers=2, num_blocks=2)
    params = toy_params(cfg, seed=22, num_relations=4)

    def loss():
        return R.sum_squares(E.encode(split_graph, params, cfg))

    assert R.grad_check(loss, params.all_params()) < 1e-4


@pytest.mark.parametrize("tile", [1, 2])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_tiled_aggregate_parity(split_graph, monkeypatch, tile, direction):
    monkeypatch.setattr(T, "_TILE", tile)
    aggregate_parity(split_graph, direction, seed=23)


def test_encode_deterministic_in_training_mode(toy_graph):
    cfg = toy_config(dropout_attention=0.3, dropout_conv=0.2)
    params = toy_params(cfg, seed=20)
    f1 = E.encode(toy_graph, params, cfg, training=True,
                  rng=np.random.default_rng(7)).values
    f2 = E.encode(toy_graph, params, cfg, training=True,
                  rng=np.random.default_rng(7)).values
    np.testing.assert_array_equal(f1, f2)
