"""Attention-weighted relational graph convolution encoder.

Each layer scores every triple (h, r, t) once, LeakyReLU(<W h_t, W h_h>),
in triple order, and then runs two directional passes over the graph. The
score is symmetric in the triple's two ends, so both directions read the
same column, each gathered into its plan's `order`; in the backward pass
their score gradients add up in that column before one inner-product
backward. Per direction, the score of each edge (j -> i) is softmax-
normalized within the group of i's neighbors sharing one relation, and the
node update is

    h_dir_i = ReLU(dropout( sum_r sum_j alpha_ij * W_r h_j + W_0 h_i ))

with W_r block-diagonal. The layer output is h_forward + h_backward. After
the last layer a fusion readout sums gated neighbor states per node:
f_i = sum over incident triples of g_rel * H[neighbor], both directions.
The width, depth, block count, dropout rates and LeakyReLU slope are read
from the run's `config.RunConfig`, which has checked them.

The hot loops are fused tape operations that recompute gathers in the
backward pass instead of retaining edge-expanded intermediates; peak
memory stays near O(V*D) rather than O(E*D). Every fused op walks its
edges in tiles of at most `tensor._TILE`, forward and backward, so that
one tile's gathers, products and sums onto nodes run on rows that are
still in cache, and its temporaries stay O(tile*D).

Two kinds of sum onto nodes. The aggregate weights each edge by its
relation's W_r, so it walks each relation's range
rel_starts[r]:rel_starts[r+1] of a direction plan and adds with
`tensor.scatter_rows`; each relation's weight gradient is added tile by
tile. Its backward never recomputes the forward messages
alpha * (h[src] W_r): they are linear in alpha, so one product
t = g[dst] W_r^T gives both dalpha = <h[src], t> and dh[src] = alpha * t.
The sums that need no relation weight (the fusion readout and its
h-gradient, the edge-score backward) walk the graph's Incidence columns,
both ends of every triple sorted by node: per tile, `data.run_starts`
cuts the node column into runs, np.add.reduceat sums each run, and each
node is added to once per tile.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
# the old name of RunConfig, kept for kgbench, its only user
from .config import RunConfig as EncoderConfig  # noqa: F401
from .data import run_starts
from .tensor import (NumericFailure, Tensor, _acc, _block_backward_q,
                     _block_backward_x, _block_forward, _grad, _record,
                     scatter_rows)


# ---------------------------------------------------------------------------
# fused tape operations


def _tiles(rel_starts):
    """(r, lo, hi) for the consecutive tiles of at most `tensor._TILE`
    edges that split each range rel_starts[r]:rel_starts[r+1]."""
    for r in range(len(rel_starts) - 1):
        end = rel_starts[r + 1]
        for lo in range(rel_starts[r], end, T._TILE):
            yield r, lo, min(lo + T._TILE, end)


def _incidence_sum(out, x, w, inc, other=None):
    """out[i] += sum over node i's positions j of the Incidence `inc`
    of w[j] * x[nbr[j]], for one weight per position. Given `other`, also
    returns the per-position dots <x[nbr[j]], other[node[j]]>.

    The list is walked in tiles of at most `tensor._TILE` positions; per
    tile, np.add.reduceat sums each node's part of its run, and each node
    of the tile is added to once. Nodes without a triple are not touched.
    """
    dots = None if other is None else np.empty(inc.nbr.size)
    for _, lo, hi in _tiles((0, inc.nbr.size)):
        node = inc.node[lo:hi]
        cuts = run_starts(node)
        ys = x[inc.nbr[lo:hi]]
        if dots is not None:
            dots[lo:hi] = np.einsum("ij,ij->i", ys, other[node])
        ys *= w[lo:hi, None]
        out[node[cuts]] += np.add.reduceat(ys, cuts, axis=0)
    return dots


def edge_inner_product(hw, graph):
    """Per-triple inner products <hw[tail], hw[head]> as an (E,1) column,
    in triple order."""
    v = hw.values
    heads, tails = graph.heads, graph.tails
    e = np.empty(heads.size)
    for _, lo, hi in _tiles((0, heads.size)):
        e[lo:hi] = np.einsum("ij,ij->i", v[tails[lo:hi]], v[heads[lo:hi]])
    out = Tensor(e[:, None])

    def bw(g):
        # each end's gradient is g times the other end: one incidence walk
        inc = graph.incidence()
        _incidence_sum(_grad(hw), v, g[inc.triple, 0], inc)

    _record(out, bw)
    return out


def attention_relational_aggregate(h, alpha, plan, blocks, num_blocks):
    """sum_r sum_{edges k of r} alpha_k * (h[src_k] @ W_r) scattered to dst.

    `blocks` holds every relation's weight, (R*D_in, D_out/B): rows
    r*D_in:(r+1)*D_in are relation r's B diagonal blocks, stacked
    vertically. Gathered edge features are recomputed in the backward pass.
    """
    din_b, dout_b = h.shape[1] // num_blocks, blocks.shape[1]
    q = blocks.values.reshape(-1, num_blocks, din_b, dout_b)
    hv, av = h.values, alpha.values
    res = np.zeros((h.shape[0], num_blocks * dout_b))
    for r, lo, hi in _tiles(plan.rel_starts):
        ys = _block_forward(hv[plan.src[lo:hi]], q[r])
        ys *= av[lo:hi]
        scatter_rows(res, plan.dst[lo:hi], ys)
    out = Tensor(res)

    def bw(g):
        gh = _grad(h)
        galpha = np.empty_like(av)
        # relations without edges keep zero rows
        gq = np.zeros(q.shape)
        for r, lo, hi in _tiles(plan.rel_starts):
            src, dst = plan.src[lo:hi], plan.dst[lo:hi]
            xs = hv[src]
            gd = g[dst]
            # the message is linear in alpha: with t = g[dst] W_r^T,
            # dalpha = <h[src], t> and dh[src] = alpha * t
            t = _block_backward_x(gd, q[r])
            galpha[lo:hi] = np.einsum("ij,ij->i", xs, t)[:, None]
            t *= av[lo:hi]
            scatter_rows(gh, src, t)
            gd *= av[lo:hi]
            gq[r] += _block_backward_q(xs, gd, num_blocks)
        _acc(alpha, galpha)
        _acc(blocks, gq.reshape(blocks.shape))

    _record(out, bw)
    return out


def gated_neighbor_sum(h, gates, graph):
    """f_i = sum over node i's incident triples of gates[rel] * h[neighbor],
    both directions: one incidence walk.

    The readout is symmetric in a triple's two ends, so the h-gradient is
    the same walk over the output gradient. The gate gradient sums that
    walk's dots <g[neighbor], h[node]>, two per triple, by relation.
    """
    hv, gv = h.values, gates.values
    inc = graph.incidence()
    rel_of = graph.rels[inc.triple]
    gate_of = gv[rel_of, 0]
    res = np.zeros(h.shape)
    _incidence_sum(res, hv, gate_of, inc)
    out = Tensor(res)

    def bw(g):
        dots = _incidence_sum(_grad(h), g, gate_of, inc, other=hv)
        _acc(gates, np.bincount(rel_of, dots, minlength=gv.shape[0])[:, None])

    _record(out, bw)
    return out


# ---------------------------------------------------------------------------
# layer and full encoder


def conv_layer_forward(h, graph, weights, config, direction, training=False,
                       rng=None, *, scores, self_pre, layer):
    """One directional pass; returns the (|V|, D) directional hidden state.

    scores (one LeakyReLU edge score per triple, in triple order) and
    self_pre (h @ self_W) are computed once per layer and shared by its two
    directions; each direction gathers the scores into its plan's order.
    A direction without edges gives ReLU(self_pre): its fused ops walk no
    tile.
    """
    plan = graph.plan(direction)
    alpha = T.segment_softmax(T.gather_rows(scores, plan.order),
                              plan.seg_starts)
    alpha = T.dropout(alpha, config.dropout_attention, training, rng)
    agg = attention_relational_aggregate(
        h, alpha, plan, weights.blocks[direction], config.num_blocks)
    pre = T.add(agg, self_pre)
    pre = T.dropout(pre, config.dropout_conv, training, rng)
    # checked before the ReLU, which would silently zero NaNs
    bad = ~np.isfinite(pre.values)
    if bad.any():
        node = int(np.flatnonzero(bad.any(axis=1))[0])
        raise NumericFailure(
            f"non-finite hidden state (layer {layer}, direction {direction}, "
            f"node {node})")
    return T.relu(pre)


def conv_stack(graph, params, config, training=False, rng=None):
    """The stacked conv layers only: embeddings -> final hidden states."""
    if training and rng is None and (config.dropout_attention > 0
                                     or config.dropout_conv > 0):
        raise ValueError("training mode with dropout needs an rng")
    h = params.embedding
    for layer_index, lw in enumerate(params.layers):
        # only the scores read hw = h @ att_W, so without a tape it is
        # freed before the directional passes
        hw = T.matmul(h, lw.att_W)
        scores = T.leaky_relu(edge_inner_product(hw, graph),
                              config.leaky_slope)
        del hw
        self_pre = T.matmul(h, lw.self_W)
        h_fwd = conv_layer_forward(h, graph, lw, config, "forward", training,
                                   rng, scores=scores, self_pre=self_pre,
                                   layer=layer_index)
        h_bwd = conv_layer_forward(h, graph, lw, config, "backward", training,
                                   rng, scores=scores, self_pre=self_pre,
                                   layer=layer_index)
        h = T.add(h_fwd, h_bwd)
    return h


def encode(graph, params, config, training=False, rng=None):
    """Full encoder: embeddings -> stacked conv layers -> fusion readout."""
    h = conv_stack(graph, params, config, training, rng)
    return gated_neighbor_sum(h, params.gates, graph)
