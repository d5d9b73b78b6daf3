"""Tape ops kept only as references for tests, and the gradient check.

The encoder multiplies relation blocks, softmaxes attention groups and
scatters edge messages inside its fused ops, and the decoder scores
triples in one fused op; these composable versions (block-diagonal
matmul, row scatter-add, dense block assembly, sigmoid, ReLU, LeakyReLU,
dropout, row and segment softmax, elementwise sub/mul, scaling, row and
total sums, sum of squares) let the tests check those fused ops, which
apply their own activation, softmax and dropout, and the tape against
independent routes.
`grad_check` compares every gradient the tape computes with central
differences.
"""

import numpy as np

from kgar.tensor import (ShapeError, Tape, Tensor, _acc, _block_backward_q,
                         _block_backward_x, _block_forward, _record,
                         dropout_mask)


def scatter_add_rows(a, idx, num_rows):
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (a.shape[0],):
        raise ShapeError("scatter_add_rows: one index per input row required")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise ShapeError("scatter_add_rows: index out of range")
    res = np.zeros((num_rows, a.shape[1]))
    np.add.at(res, idx, a.values)
    out = Tensor(res)

    def bw(g):
        _acc(a, g[idx])

    _record(out, bw)
    return out


def block_matmul(x, q, num_blocks):
    """x @ diag(Q_1..Q_B) where q stacks the blocks vertically.

    q has shape (B*din_b, dout_b); the result is (n, B*dout_b). Equal to a
    dense product with the assembled block-diagonal matrix, without ever
    materializing its zeros.
    """
    din_b, dout_b = _split_blocks(x.shape[1], q.shape, num_blocks)
    qv = q.values.reshape(num_blocks, din_b, dout_b)
    out = Tensor(_block_forward(x.values, qv))

    def bw(g):
        _acc(x, _block_backward_x(g, qv))
        _acc(q, _block_backward_q(x.values, g, num_blocks).reshape(q.shape))

    _record(out, bw)
    return out


def _split_blocks(d_in, q_shape, num_blocks):
    if d_in % num_blocks:
        raise ShapeError(f"block count {num_blocks} does not divide input dim {d_in}")
    din_b = d_in // num_blocks
    if q_shape[0] != num_blocks * din_b:
        raise ShapeError(
            f"block weight rows {q_shape[0]} != num_blocks*din_b {num_blocks * din_b}")
    return din_b, q_shape[1]


def assemble_block_weight(blocks):
    """Dense block-diagonal matrix from a list of equally-shaped blocks.

    Off-block entries are exactly zero. Used for tests and inspection; the
    model multiplies blockwise instead.
    """
    shapes = {np.asarray(b).shape for b in blocks}
    if len(shapes) != 1:
        raise ShapeError(f"inconsistent block shapes: {sorted(shapes)}")
    (din_b, dout_b), = shapes
    b = len(blocks)
    out = np.zeros((b * din_b, b * dout_b))
    for k, blk in enumerate(blocks):
        out[k * din_b:(k + 1) * din_b, k * dout_b:(k + 1) * dout_b] = blk
    return out


def sigmoid(a):
    v = a.values
    res = np.empty_like(v)
    pos = v >= 0
    res[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    res[~pos] = ev / (1.0 + ev)
    out = Tensor(res)

    def bw(g):
        _acc(a, g * res * (1.0 - res))

    _record(out, bw)
    return out


def relu(a):
    """max(a, 0). The backward mask is read from the output: for a finite
    input, out > 0 exactly where a > 0."""
    res = np.maximum(a.values, 0.0)
    out = Tensor(res)

    def bw(g):
        _acc(a, g * (res > 0.0))

    _record(out, bw)
    return out


def leaky_relu(a, slope):
    """a where a > 0, else slope * a."""
    mask = a.values > 0.0
    out = Tensor(np.where(mask, a.values, slope * a.values))

    def bw(g):
        _acc(a, g * np.where(mask, 1.0, slope))

    _record(out, bw)
    return out


def dropout(a, rate, rng):
    """Inverted dropout with the mask `tensor.dropout_mask` draws: kept
    entries scaled by 1 / (1 - rate), dropped ones 0.0; the identity
    without an rng or at rate == 0."""
    mask = dropout_mask(a.shape, rate, rng)
    if mask is None:
        return a
    dropped, scale = mask
    out = Tensor(np.where(dropped, 0.0, a.values * scale))

    def bw(g):
        _acc(a, np.where(dropped, 0.0, g * scale))

    _record(out, bw)
    return out


def softmax_rows(a):
    """Row softmax with max-subtraction."""
    v = a.values
    e = np.exp(v - v.max(axis=1, keepdims=True))
    res = e / e.sum(axis=1, keepdims=True)
    out = Tensor(res)

    def bw(g):
        inner = (res * g).sum(axis=1, keepdims=True)
        _acc(a, res * (g - inner))

    _record(out, bw)
    return out


def segment_softmax(scores, seg_starts):
    """Softmax over contiguous row segments of a column vector.

    ``seg_starts`` are the first row of each segment (seg_starts[0] == 0);
    every segment is nonempty, so an empty column has no segments.
    """
    if scores.shape[1] != 1:
        raise ShapeError(f"segment_softmax expects a column, got {scores.shape}")
    starts = np.asarray(seg_starts, dtype=np.int64)
    v = scores.values[:, 0]
    bounds = np.append(starts, v.size)
    lengths = np.diff(bounds)
    if bounds[0] != 0 or np.any(lengths <= 0):
        raise ShapeError("segment starts must begin at 0, increase strictly "
                         "and stay in range, and be empty for an empty "
                         "column only")
    seg_max = np.maximum.reduceat(v, starts)
    e = np.exp(v - np.repeat(seg_max, lengths))
    z = np.add.reduceat(e, starts)
    res = e / np.repeat(z, lengths)
    out = Tensor(res[:, None])

    def bw(g):
        gv = g[:, 0]
        inner = np.add.reduceat(res * gv, starts)
        _acc(scores, (res * (gv - np.repeat(inner, lengths)))[:, None])

    _record(out, bw)
    return out


def sub(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes differ, {a.shape} vs {b.shape}")
    out = Tensor(a.values - b.values)

    def bw(g):
        _acc(a, g)
        _acc(b, -g)

    _record(out, bw)
    return out


def mul(a, b):
    """Elementwise product; also accepts a column (n,1) against (n,m)."""
    if a.shape != b.shape:
        if a.shape == (b.shape[0], 1):
            a, b = b, a  # normalize: broadcast operand second
        if not (b.shape == (a.shape[0], 1)):
            raise ShapeError(f"mul: shapes differ, {a.shape} vs {b.shape}")
    out = Tensor(a.values * b.values)

    def bw(g):
        ga = g * b.values
        gb = g * a.values
        if b.shape != a.shape:
            gb = gb.sum(axis=1, keepdims=True)
        _acc(a, ga)
        _acc(b, gb)

    _record(out, bw)
    return out


def row_sum(a):
    out = Tensor(a.values.sum(axis=1, keepdims=True))

    def bw(g):
        _acc(a, np.broadcast_to(g, a.shape).copy())

    _record(out, bw)
    return out


def sum_all(a):
    out = Tensor([[a.values.sum()]])

    def bw(g):
        _acc(a, np.full_like(a.values, g[0, 0]))

    _record(out, bw)
    return out


def scale(a, c):
    c = float(c)
    out = Tensor(a.values * c)

    def bw(g):
        _acc(a, g * c)

    _record(out, bw)
    return out


def sum_squares(a):
    out = Tensor([[float(np.square(a.values).sum())]])

    def bw(g):
        _acc(a, (2.0 * g[0, 0]) * a.values)

    _record(out, bw)
    return out


def grad_check(loss_fn, params, eps=1e-5):
    """Max relative error of analytic gradients vs central differences.

    ``loss_fn`` must be deterministic (dropout off, fixed inputs) and return
    a scalar Tensor; it is re-evaluated with perturbed parameters.
    """
    params = list(params)
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
    base = loss.item()
    tape.backward(loss)
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.values)
                for p in params]
    for p in params:
        p.grad = None

    # Coordinates where both gradients sit below the finite-difference noise
    # floor are counted as agreeing.
    floor = 1e-7 * max(1.0, abs(base))
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.values.reshape(-1)
        gflat = ga.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            f_plus = loss_fn().item()
            flat[k] = orig - eps
            f_minus = loss_fn().item()
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = gflat[k]
            m = max(abs(a), abs(numeric))
            if m <= floor:
                continue
            worst = max(worst, abs(a - numeric) / m)
    return worst
