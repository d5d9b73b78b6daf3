"""Model parameter containers, initialization, and task wiring."""

from __future__ import annotations

import numpy as np

from .data import DIRECTIONS
from .tensor import Parameter

TASKS = ("classify", "linkpred")
DECODERS = ("complex", "distmult")
INITS = ("scaled", "std-normal")


class LayerWeights:
    """One conv layer: shared attention weight, self-loop weight, and
    per-direction per-relation stacked block weights."""

    def __init__(self, att_W, self_W, blocks):
        self.att_W = att_W
        self.self_W = self_W
        self.blocks = blocks  # direction -> [Parameter per relation]


class ModelParams:
    """All learned weights for one task.

    `head` is the classification weight (D x K); `rel_re`/`rel_im` the
    complex relation embeddings; `rel_diag` the diagonal relation vectors
    of the DistMult baseline. Exactly the fields the task needs are set.
    """

    def __init__(self, embedding, layers, gates, head=None,
                 rel_re=None, rel_im=None, rel_diag=None):
        self.embedding = embedding
        self.layers = layers
        self.gates = gates
        self.head = head
        self.rel_re = rel_re
        self.rel_im = rel_im
        self.rel_diag = rel_diag

    def all_params(self):
        """Every parameter in a fixed, documented order."""
        out = [self.embedding]
        for lw in self.layers:
            out.append(lw.att_W)
            out.append(lw.self_W)
            for direction in DIRECTIONS:
                out.extend(lw.blocks[direction])
        out.append(self.gates)
        for p in (self.head, self.rel_re, self.rel_im, self.rel_diag):
            if p is not None:
                out.append(p)
        return out


def _draw(rng, shape, std, init):
    if init == "std-normal":
        return rng.standard_normal(shape)
    return rng.normal(0.0, std, shape)


def init_params(num_entities, num_relations, config, task, rng,
                num_classes=None, decoder="complex", init="scaled"):
    """Create freshly initialized ModelParams.

    Default init scales normal draws by sqrt(2/(fan_in+fan_out)) for weight
    matrices (per-block for the relation blocks) and 1/sqrt(width) for
    embedding-like tables; `std-normal` draws every weight from N(0,1).
    Fusion gates start at 1.0 under either mode, which reduces the fusion
    readout to plain neighbor summation at initialization.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    if decoder not in DECODERS:
        raise ValueError(f"decoder must be one of {DECODERS}, got {decoder!r}")
    if init not in INITS:
        raise ValueError(f"init must be one of {INITS}, got {init!r}")
    if task == "classify" and not num_classes:
        raise ValueError("classify task needs num_classes")

    m, d, b = config.embed_dim, config.hidden_dim, config.num_blocks
    regularize_blocks = task == "classify"

    embedding = Parameter(
        "embedding", _draw(rng, (num_entities, m), 1.0 / np.sqrt(m), init))
    layers = []
    for layer in range(config.num_layers):
        d_in = m if layer == 0 else d
        w_std = np.sqrt(2.0 / (d_in + d))
        att_W = Parameter(f"layer{layer}.att_w",
                          _draw(rng, (d_in, d), w_std, init))
        self_W = Parameter(f"layer{layer}.self_w",
                           _draw(rng, (d_in, d), w_std, init))
        din_b, dout_b = d_in // b, d // b
        q_std = np.sqrt(2.0 / (din_b + dout_b))
        blocks = {}
        for direction in DIRECTIONS:
            blocks[direction] = [
                Parameter(f"layer{layer}.{direction}.rel{r}.blocks",
                          _draw(rng, (d_in, dout_b), q_std, init),
                          regularized=regularize_blocks)
                for r in range(num_relations)]
        layers.append(LayerWeights(att_W, self_W, blocks))
    gates = Parameter("fusion.gates", np.ones((num_relations, 1)))

    kwargs = {}
    if task == "classify":
        kwargs["head"] = Parameter(
            "classify.head",
            _draw(rng, (d, num_classes), np.sqrt(2.0 / (d + num_classes)), init))
    elif decoder == "complex":
        if d % 2:
            raise ValueError(f"complex decoder needs an even hidden_dim, got {d}")
        half = d // 2
        std = 1.0 / np.sqrt(half)
        kwargs["rel_re"] = Parameter(
            "decoder.rel_re", _draw(rng, (num_relations, half), std, init),
            regularized=True)
        kwargs["rel_im"] = Parameter(
            "decoder.rel_im", _draw(rng, (num_relations, half), std, init),
            regularized=True)
    else:
        kwargs["rel_diag"] = Parameter(
            "decoder.rel_diag",
            _draw(rng, (num_relations, d), 1.0 / np.sqrt(d), init),
            regularized=True)
    return ModelParams(embedding, layers, gates, **kwargs)


def rebuild_params(arrays, regularized, config, num_relations):
    """Reassemble a ModelParams from a name->array mapping (see snapshot)."""
    def param(name):
        return Parameter(name, arrays[name], regularized=regularized[name])

    num_layers = config.num_layers
    layers = []
    for layer in range(num_layers):
        blocks = {
            direction: [param(f"layer{layer}.{direction}.rel{r}.blocks")
                        for r in range(num_relations)]
            for direction in DIRECTIONS}
        layers.append(LayerWeights(param(f"layer{layer}.att_w"),
                                   param(f"layer{layer}.self_w"), blocks))
    optional = {}
    for field, name in (("head", "classify.head"),
                        ("rel_re", "decoder.rel_re"),
                        ("rel_im", "decoder.rel_im"),
                        ("rel_diag", "decoder.rel_diag")):
        if name in arrays:
            optional[field] = param(name)
    return ModelParams(param("embedding"), layers, param("fusion.gates"),
                       **optional)
