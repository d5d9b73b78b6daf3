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
f_i = sum over incident edges of g_rel * H[neighbor], both directions.

The hot loops are fused tape operations that recompute gathers in the
backward pass instead of retaining edge-expanded intermediates; peak
memory stays near O(V*D) rather than O(E*D). Each fused op walks every
relation's edge range rel_starts[r]:rel_starts[r+1] in tiles of at most
`tensor._TILE` edges, forward and backward, so that one tile's gather,
block product, attention scaling and `tensor.scatter_rows` sum onto
nodes run on rows that are still in cache, and its temporaries stay
O(tile*D). Sums onto nodes, and each relation's weight gradient, are
therefore added tile by tile. The aggregate's backward never recomputes
the forward messages alpha * (h[src] W_r): they are linear in alpha, so
one product t = g[dst] W_r^T gives both dalpha = <h[src], t> and
dh[src] = alpha * t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import (NumericFailure, Tensor, _acc, _block_backward_q,
                     _block_backward_x, _block_forward, _record, scatter_rows)


@dataclass
class EncoderConfig:
    embed_dim: int = 500
    num_layers: int = 2
    num_blocks: int = 10
    dropout_attention: float = 0.6
    dropout_conv: float = 0.4
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.embed_dim % self.num_blocks:
            raise ValueError(f"num_blocks {self.num_blocks} does not divide "
                             f"embed_dim {self.embed_dim}")
        for rate, label in ((self.dropout_attention, "dropout_attention"),
                            (self.dropout_conv, "dropout_conv")):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{label} must be in [0,1), got {rate}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(
                f"leaky_slope must be in (0,1), got {self.leaky_slope}")


# ---------------------------------------------------------------------------
# fused tape operations


def _tiles(rel_starts):
    """(r, lo, hi) for the consecutive tiles of at most `tensor._TILE`
    edges that split each range rel_starts[r]:rel_starts[r+1]."""
    for r in range(len(rel_starts) - 1):
        end = rel_starts[r + 1]
        for lo in range(rel_starts[r], end, T._TILE):
            yield r, lo, min(lo + T._TILE, end)


def edge_inner_product(hw, src, dst):
    """Per-edge inner products <hw[dst_k], hw[src_k]> as an (E,1) column."""
    v = hw.values
    n_edges = src.size
    e = np.empty(n_edges)
    for _, lo, hi in _tiles((0, n_edges)):
        e[lo:hi] = np.einsum("ij,ij->i", v[dst[lo:hi]], v[src[lo:hi]])
    out = Tensor(e[:, None])

    def bw(g):
        if hw.grad is None:
            hw.grad = np.zeros_like(v)
        gcol = g[:, 0:1]
        for _, lo, hi in _tiles((0, n_edges)):
            scatter_rows(hw.grad, dst[lo:hi], gcol[lo:hi] * v[src[lo:hi]])
            scatter_rows(hw.grad, src[lo:hi], gcol[lo:hi] * v[dst[lo:hi]])

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
        if h.grad is None:
            h.grad = np.zeros_like(hv)
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
            scatter_rows(h.grad, src, t)
            gd *= av[lo:hi]
            gq[r] += _block_backward_q(xs, gd, num_blocks)
        _acc(alpha, galpha)
        _acc(blocks, gq.reshape(blocks.shape))

    _record(out, bw)
    return out


def gated_neighbor_sum(h, gates, plan):
    """sum over edges of gates[rel_k] * h[src_k], scattered to dst."""
    hv = h.values
    gv = gates.values
    res = np.zeros(h.shape)
    for r, lo, hi in _tiles(plan.rel_starts):
        scatter_rows(res, plan.dst[lo:hi], gv[r, 0] * hv[plan.src[lo:hi]])
    out = Tensor(res)

    def bw(g):
        if h.grad is None:
            h.grad = np.zeros_like(hv)
        if gates.grad is None:
            gates.grad = np.zeros_like(gv)
        for r, lo, hi in _tiles(plan.rel_starts):
            src, dst = plan.src[lo:hi], plan.dst[lo:hi]
            gd = g[dst]
            scatter_rows(h.grad, src, gv[r, 0] * gd)
            gates.grad[r, 0] += float(np.einsum("ij,ij->", hv[src], gd))

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
    alpha = T.segment_softmax(T.permute_rows(scores, plan.order),
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
        scores = T.leaky_relu(edge_inner_product(hw, graph.heads, graph.tails),
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
    f_fwd = gated_neighbor_sum(h, params.gates, graph.plan("forward"))
    f_bwd = gated_neighbor_sum(h, params.gates, graph.plan("backward"))
    return T.add(f_fwd, f_bwd)
