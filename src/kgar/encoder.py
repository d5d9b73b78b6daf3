"""Attention-weighted relational graph convolution encoder.

Each layer scores every triple (h, r, t) once, LeakyReLU(<W h_t, W h_h>),
in triple order, and then runs two directional passes over the graph. The
score is symmetric in the triple's two ends, so both directions read the
same column, each in its plan's `order`; in the backward pass their score
gradients add up in that column before one score backward. Per
direction, the score of each edge (j -> i) is softmax-normalized within
the group of i's neighbors sharing one relation, and the node update is

    h_dir_i = ReLU(dropout( sum_r sum_j dropout(alpha)_ij * W_r h_j
                            + W_0 h_i ))

with W_r block-diagonal. Each fused op applies its own activation,
softmax and dropout. The score op applies the LeakyReLU in its own output
column. The aggregate is the whole update from the score column on: it
softmaxes the column in plan order into alpha, drops alpha out, sums the
messages, adds W_0 h_i, and applies the conv dropout and the ReLU in its
own buffer; its backward reads only the layer input, the ReLU mask
out > 0, alpha, the dropped alpha and the two dropout masks. Tape
closures hold gradient slots, not tensors (see `tensor`), so a training
step keeps no inner products, message sum, W_0 h, pre-activation, dropout
output or directional output until its backward, nor a fusion output.
The layer output is h_forward + h_backward. After
the last layer a fusion readout sums gated neighbor states per node:
f_i = sum over incident triples of g_rel * H[neighbor], both directions.
The width, depth, block count, dropout rates and LeakyReLU slope are read
from the run's `config.RunConfig`, which has checked them. The dropouts
run only in a training pass, the one that is given an rng.

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


def edge_inner_product(hw, graph, slope):
    """Per-triple attention scores LeakyReLU(<hw[tail], hw[head]>) as an
    (E,1) column, in triple order, for a LeakyReLU slope in (0, 1). The
    LeakyReLU runs in the op's own buffer, and the backward reads its mask
    from the output: as the slope is > 0, out > 0 exactly where the inner
    product is."""
    v = hw.values
    heads, tails = graph.heads, graph.tails
    e = np.empty(heads.size)
    for _, lo, hi in _tiles((0, heads.size)):
        e[lo:hi] = np.einsum("ij,ij->i", v[tails[lo:hi]], v[heads[lo:hi]])
    e[e < 0.0] *= slope
    res = e[:, None]
    out = Tensor(res)
    shw = hw.slot

    def bw(g):
        g[~(res > 0.0)] *= slope
        # each end's gradient is g times the other end: one incidence walk
        inc = graph.incidence()
        _incidence_sum(_grad(shw), v, g[inc.triple, 0], inc)

    _record(out, bw)
    return out


def attention_relational_aggregate(h, scores, plan, blocks, num_blocks,
                                   self_pre, mask=None, *, alpha_mask=None,
                                   layer, direction):
    """One whole directional update, computed in one buffer:

        ReLU(dropout(sum_r sum_{edges k of r} a_k * (h[src_k] @ W_r)
                     + self_pre)),   a = dropout(alpha)

    with the messages scattered to dst and summed before self_pre is added,
    and alpha the softmax of scores[plan.order] within each attention group.

    `blocks` holds every relation's weight, (R*D_in, D_out/B): rows
    r*D_in:(r+1)*D_in are relation r's B diagonal blocks, stacked
    vertically. `mask` and `alpha_mask` are `tensor.dropout_mask`s of the
    output's and of the scores' shape, or None for no dropout. A non-finite
    entry after the dropout raises NumericFailure naming `layer`,
    `direction` and its node; the ReLU would silently zero a NaN. Gathered
    edge features are recomputed in the backward pass, which reads only
    h, the ReLU mask out > 0, the dropout masks, alpha and the dropped alpha.
    """
    din_b, dout_b = h.shape[1] // num_blocks, blocks.shape[1]
    q = blocks.values.reshape(-1, num_blocks, din_b, dout_b)
    starts = plan.seg_starts
    alpha = scores.values[plan.order, 0]
    lengths = np.diff(np.append(starts, alpha.size))
    alpha -= np.repeat(np.maximum.reduceat(alpha, starts), lengths)
    np.exp(alpha, out=alpha)
    alpha /= np.repeat(np.add.reduceat(alpha, starts), lengths)
    hv, av = h.values, alpha[:, None]
    if alpha_mask is not None:
        av = T.apply_dropout(alpha_mask, av)
    res = np.zeros((h.shape[0], num_blocks * dout_b))
    for r, lo, hi in _tiles(plan.rel_starts):
        ys = _block_forward(hv[plan.src[lo:hi]], q[r])
        ys *= av[lo:hi]
        scatter_rows(res, plan.dst[lo:hi], ys)
    res += self_pre.values
    if mask is not None:
        T.apply_dropout(mask, res, out=res)
    if not np.isfinite(res).all():
        node = int(np.flatnonzero(~np.isfinite(res).all(axis=1))[0])
        raise NumericFailure(
            f"non-finite hidden state (layer {layer}, direction {direction}, "
            f"node {node})")
    np.maximum(res, 0.0, out=res)
    # for a finite input, out > 0 exactly where the ReLU passed it
    passed = res > 0.0
    out = Tensor(res)
    sh, ss, sblocks, sself = h.slot, scores.slot, blocks.slot, self_pre.slot

    def bw(g):
        g *= passed
        if mask is not None:
            T.apply_dropout(mask, g, out=g)
        _acc(sself, g)
        gh = _grad(sh)
        galpha = np.empty(alpha.size)
        # relations without edges keep zero rows
        gq = np.zeros(q.shape)
        for r, lo, hi in _tiles(plan.rel_starts):
            src, dst = plan.src[lo:hi], plan.dst[lo:hi]
            xs = hv[src]
            gd = g[dst]
            # the message is linear in alpha: with t = g[dst] W_r^T,
            # dalpha = <h[src], t> and dh[src] = alpha * t
            t = _block_backward_x(gd, q[r])
            galpha[lo:hi] = np.einsum("ij,ij->i", xs, t)
            t *= av[lo:hi]
            scatter_rows(gh, src, t)
            gd *= av[lo:hi]
            gq[r] += _block_backward_q(xs, gd, num_blocks)
        if alpha_mask is not None:
            T.apply_dropout(alpha_mask, galpha[:, None], out=galpha[:, None])
        # the softmax backward; order is a permutation: one add per triple
        inner = np.repeat(np.add.reduceat(alpha * galpha, starts), lengths)
        _grad(ss)[plan.order, 0] += alpha * (galpha - inner)
        _acc(sblocks, gq.reshape(sblocks.shape))

    _record(out, bw)
    return out


def gated_neighbor_sum(h, gates, graph):
    """f_i = sum over node i's incident triples of gates[rel] * h[neighbor],
    both directions: one incidence walk.

    The readout is symmetric in a triple's two ends, so the h-gradient is
    the same walk over the output gradient. The gate gradient sums that
    walk's dots <g[neighbor], h[node]>, two per triple, by relation.
    """
    hv, sh, sgates = h.values, h.slot, gates.slot
    inc = graph.incidence()
    rel_of = graph.rels[inc.triple]
    gate_of = gates.values[rel_of, 0]
    res = np.zeros(h.shape)
    _incidence_sum(res, hv, gate_of, inc)
    out = Tensor(res)

    def bw(g):
        dots = _incidence_sum(_grad(sh), g, gate_of, inc, other=hv)
        _acc(sgates, np.bincount(rel_of, dots,
                                 minlength=sgates.shape[0])[:, None])

    _record(out, bw)
    return out


# ---------------------------------------------------------------------------
# layer and full encoder


def conv_layer_forward(h, graph, weights, config, direction, rng=None, *,
                       scores, self_pre, layer):
    """One directional pass; returns the (|V|, D) directional hidden state.

    scores (one LeakyReLU edge score per triple, in triple order) and
    self_pre (h @ self_W) are computed once per layer and shared by its two
    directions; each direction's aggregate reads the scores in its plan's
    order and softmaxes them. Given an rng, the pass trains: it draws the
    attention dropout's mask and the conv dropout's mask from it, in that
    order, and the aggregate applies both. Without one, it runs no dropout.
    A direction without edges gives ReLU(self_pre): its fused ops walk no
    tile.
    """
    alpha_mask = T.dropout_mask(scores.shape, config.dropout_attention, rng)
    mask = T.dropout_mask(self_pre.shape, config.dropout_conv, rng)
    return attention_relational_aggregate(
        h, scores, graph.plan(direction), weights.blocks[direction],
        config.num_blocks, self_pre, mask, alpha_mask=alpha_mask,
        layer=layer, direction=direction)


def conv_stack(graph, params, config, rng=None):
    """The stacked conv layers only: embeddings -> final hidden states."""
    h = params.embedding
    for layer_index, lw in enumerate(params.layers):
        # only the scores read hw = h @ att_W, and only the directional
        # passes read the scores and self_pre, so each is freed as soon as
        # its readers are done, with a tape or without; a tape keeps the two
        # that the score backward reads, hw and the score column
        hw = T.matmul(h, lw.att_W)
        scores = edge_inner_product(hw, graph, config.leaky_slope)
        del hw
        self_pre = T.matmul(h, lw.self_W)
        h_fwd = conv_layer_forward(h, graph, lw, config, "forward", rng,
                                   scores=scores, self_pre=self_pre,
                                   layer=layer_index)
        h_bwd = conv_layer_forward(h, graph, lw, config, "backward", rng,
                                   scores=scores, self_pre=self_pre,
                                   layer=layer_index)
        del self_pre, scores
        h = T.add(h_fwd, h_bwd)
    return h


def encode(graph, params, config, rng=None):
    """Full encoder: embeddings -> stacked conv layers -> fusion readout.
    A pass given an rng trains, drawing its dropout masks from it; without
    one it is an evaluation pass, with no dropout."""
    h = conv_stack(graph, params, config, rng)
    return gated_neighbor_sum(h, params.gates, graph)
