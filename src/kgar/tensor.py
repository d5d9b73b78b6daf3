"""Minimal dense matrix autodiff: a reverse-mode tape over numpy.

Everything is a 2-D float64 matrix. Operations executed while a Tape is
active record a backward closure; ``Tape.backward(loss)`` replays them in
reverse, accumulating gradients into ``Tensor.grad``. Gradients of
intermediate tensors are freed as soon as their producing closure has run;
leaf tensors (Parameters) keep theirs until an optimizer step clears them.

A closure holds only the `GradSlot` (shape and gradient buffer) of each
tensor it routes a gradient to, and the arrays its backward reads; never
a Tensor. So a tensor's values are freed as soon as the forward drops its
last reference, with a tape active or not, unless some backward reads
them; those are freed as soon as the last closure that reads them has
run.

No tape active means pure evaluation: no closures, no gradient memory.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class GradientMissing(RuntimeError):
    """An optimizer step found a parameter without a gradient."""


class NumericFailure(RuntimeError):
    """A non-finite value appeared where the contract forbids it."""


class GradSlot:
    """Where a tensor's gradient collects: its shape and its buffer, None
    until the first gradient arrives."""

    __slots__ = ("shape", "grad")

    def __init__(self, shape):
        self.shape = shape
        self.grad = None


class Tensor:
    """Dense row-major float64 matrix with a gradient slot."""

    __slots__ = ("values", "slot")

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D matrices, got ndim={arr.ndim}")
        self.values = arr
        self.slot = GradSlot(arr.shape)

    @property
    def grad(self):
        return self.slot.grad

    @grad.setter
    def grad(self, value):
        self.slot.grad = value

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


class Parameter(Tensor):
    """A named, learnable tensor; ``regularized`` opts it into L2 penalties."""

    __slots__ = ("name", "regularized")

    def __init__(self, name, values, regularized=False):
        super().__init__(values)
        self.name = name
        self.regularized = regularized

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.values.shape})"


# ---------------------------------------------------------------------------
# tape machinery


_ACTIVE_TAPE = None


class Tape:
    """Records backward closures for one forward pass."""

    def __init__(self):
        self._steps = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, fn):
        self._steps.append(fn)

    def backward(self, loss):
        if loss.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, got {loss.shape}")
        loss.grad = np.ones((1, 1))
        # a closure that has run is dropped at once, and with it every
        # array that only its backward read
        while self._steps:
            self._steps.pop()()


def _tape():
    return _ACTIVE_TAPE


def _grad(slot):
    """The gradient buffer of a GradSlot (or Tensor), allocated as zeros of
    its shape on first use."""
    if slot.grad is None:
        slot.grad = np.zeros(slot.shape)
    return slot.grad


def _acc(slot, g):
    grad = _grad(slot)
    grad += g


def _record(out, fn):
    """Register fn(out.grad) as a backward closure; it holds out's slot,
    not out, and frees the gradient once consumed."""
    tp = _tape()
    if tp is None:
        return
    slot = out.slot

    def step():
        if slot.grad is not None:
            fn(slot.grad)
            slot.grad = None

    tp.record(step)


# ---------------------------------------------------------------------------
# elementwise / linear ops


def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    av, bv, sa, sb = a.values, b.values, a.slot, b.slot
    out = Tensor(av @ bv)

    def bw(g):
        _acc(sa, g @ bv.T)
        _acc(sb, av.T @ g)

    _record(out, bw)
    return out


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ, {a.shape} vs {b.shape}")
    sa, sb = a.slot, b.slot
    out = Tensor(a.values + b.values)

    def bw(g):
        _acc(sa, g)
        _acc(sb, g)

    _record(out, bw)
    return out


# rows per tile: the encoder's fused ops walk their plan edges, triples
# and incidence positions, and scatter_rows its rows, in tiles this long,
# so that one tile's (rows x D) temporaries stay in cache (512 x D=100
# float64 is 400 kB)
_TILE = 512


def scatter_rows(out, idx, vals):
    """out[idx[k]] += vals[k] for k = 0, 1, ... in that order, bit for bit
    (an unbuffered scatter-add), for a C-contiguous 2-D `out` (ValueError
    otherwise) and (len(idx), D) real `vals`. Per tile of at most `_TILE`
    rows, one `np.add.at` on the flat view of `out` runs numpy's 1-D
    indexed-add loop; an even D adds column pairs as complex128: half the
    indices, the same adds."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_rows: out must be C-contiguous")
    d, flat = out.shape[1], out.reshape(-1)
    if d % 2 == 0:
        flat, d = flat.view(np.complex128), d // 2
        vals = np.ascontiguousarray(vals).view(np.complex128)
    cols = np.arange(d)
    for lo in range(0, len(idx), _TILE):
        np.add.at(flat, (idx[lo:lo + _TILE, None] * d + cols).ravel(),
                  vals[lo:lo + _TILE].ravel())


def _row_index(a, idx, op):
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"{op}: index must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"{op}: index out of range")
    return idx


def gather_rows(a, idx):
    idx = _row_index(a, idx, "gather_rows")
    sa = a.slot
    out = Tensor(a.values[idx])

    def bw(g):
        scatter_rows(_grad(sa), idx, g)

    _record(out, bw)
    return out


# ---------------------------------------------------------------------------
# block-diagonal weights


def _block_forward(xv, qv):
    """xv @ diag(qv[0], ..., qv[B-1]) for blocks qv of (B, din_b, dout_b),
    one product over the (B, n, din_b) view of xv."""
    b, din_b, dout_b = qv.shape
    res = np.empty((xv.shape[0], b * dout_b))
    np.matmul(xv.reshape(-1, b, din_b).transpose(1, 0, 2), qv,
              out=res.reshape(-1, b, dout_b).transpose(1, 0, 2))
    return res


def _block_backward_x(g, qv):
    b, din_b, dout_b = qv.shape
    dx = np.empty((g.shape[0], b * din_b))
    np.matmul(g.reshape(-1, b, dout_b).transpose(1, 0, 2),
              qv.transpose(0, 2, 1),
              out=dx.reshape(-1, b, din_b).transpose(1, 0, 2))
    return dx


def _block_backward_q(xv, g, b):
    n = xv.shape[0]
    return np.matmul(xv.reshape(n, b, xv.shape[1] // b).transpose(1, 2, 0),
                     g.reshape(n, b, g.shape[1] // b).transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# dropout masks
#
# the encoder's fused ops apply their own LeakyReLU, softmax, ReLU and
# dropout; in a training pass, the one given an rng, `dropout_mask` draws
# the masks that they apply, forward and backward, with `apply_dropout`


def dropout_mask(shape, rate, rng):
    """Inverted dropout's mask for an array of `shape`, as (dropped, scale):
    one draw rng.random(shape) keeps the entries >= rate, the dropped ones
    are zeroed and the kept ones scaled by 1 / (1 - rate). None when
    dropout is the identity: no rng (an evaluation pass), or rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    return rng.random(shape) < rate, 1.0 / (1.0 - rate)


def apply_dropout(mask, x, out=None):
    """x * scale with the dropped entries set to 0.0, into `out` (which may
    be x) or a new array, for a `dropout_mask` pair: the same map in the
    forward and the backward pass."""
    dropped, scale = mask
    out = np.multiply(x, scale, out=out)
    np.copyto(out, 0.0, where=dropped)
    return out


# ---------------------------------------------------------------------------
# losses


def softmax_cross_entropy(logits, class_ids):
    """Cross entropy of each row's softmax against its true class, summed
    over rows: log Σ exp(z − m) − (z_true − m) with m the row max, exact
    and finite for any finite logits. The gradient is softmax − onehot."""
    ids = np.asarray(class_ids, dtype=np.int64)
    if ids.shape != (logits.shape[0],):
        raise ShapeError("softmax_cross_entropy: one class id per logit row")
    rows = np.arange(ids.size)
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    out = Tensor([[(np.log(total[:, 0]) - shifted[rows, ids]).sum()]])
    sl = logits.slot

    def bw(g):
        d = e / total
        d[rows, ids] -= 1.0
        _acc(sl, g[0, 0] * d)

    _record(out, bw)
    return out


def binary_cross_entropy_bits(scores, labels):
    """Mean base-2 cross entropy of sigmoid(score) against 0/1 labels.

    Computed via softplus so it is finite for any finite score.
    """
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.shape != (y.size, 1):
        raise ShapeError(
            f"binary_cross_entropy_bits: scores {scores.shape} vs {y.size} labels")
    s = scores.values[:, 0]
    per = y * np.logaddexp(0.0, -s) + (1.0 - y) * np.logaddexp(0.0, s)
    out = Tensor([[per.sum() / (y.size * math.log(2.0))]])
    ss = scores.slot

    def bw(g):
        p = np.empty_like(s)
        pos = s >= 0
        p[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
        es = np.exp(s[~pos])
        p[~pos] = es / (1.0 + es)
        _acc(ss, (g[0, 0] * (p - y) / (y.size * math.log(2.0)))[:, None])

    _record(out, bw)
    return out


def l2_penalty(tensors, coefficient):
    """coefficient * sum of squared entries over all the given tensors.

    A tensor made by `gather_rows` penalises the rows it gathered, each as
    often as it was gathered; its backward routes the gradient on.
    """
    if coefficient < 0:
        raise ValueError(f"l2 coefficient must be >= 0, got {coefficient}")
    total = sum(float(np.square(t.values).sum()) for t in tensors)
    out = Tensor([[coefficient * total]])
    read = [(t.slot, t.values) for t in tensors]

    def bw(g):
        c = 2.0 * coefficient * g[0, 0]
        for slot, values in read:
            _acc(slot, c * values)

    _record(out, bw)
    return out


# ---------------------------------------------------------------------------
# optimizers


def _with_grads(params):
    """The parameters as a list; GradientMissing if one has no gradient."""
    params = list(params)
    for p in params:
        if p.grad is None:
            raise GradientMissing(f"parameter {p.name!r} has no gradient")
    return params


def sgd_step(params, learning_rate):
    """Plain gradient descent: w <- w - lr * grad; gradients cleared."""
    for p in _with_grads(params):
        p.values -= learning_rate * p.grad
        p.grad = None


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moment buffers for the optional Adam variant."""

    def __init__(self):
        self.t = 0
        self.m = {}
        self.v = {}


def adam_step(params, state, learning_rate):
    params = _with_grads(params)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    for p in params:
        if p.name not in state.m:
            state.m[p.name] = np.zeros_like(p.values)
            state.v[p.name] = np.zeros_like(p.values)
        m, v = state.m[p.name], state.v[p.name]
        m *= b1
        m += (1 - b1) * p.grad
        v *= b2
        v += (1 - b2) * np.square(p.grad)
        p.values -= learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
        p.grad = None
