"""Model parameter containers, initialization, and task wiring."""

from __future__ import annotations

import numpy as np

from .data import DIRECTIONS
from .snapshot import SnapshotError
from .tensor import Parameter

TASKS = ("classify", "linkpred")
DECODERS = ("complex", "distmult")
INITS = ("scaled", "std-normal")


class LayerWeights:
    """One conv layer: shared attention weight, self-loop weight, and per
    direction all relations' blocks in one (R*D_in, D_out/B) parameter."""

    def __init__(self, att_W, self_W, blocks):
        self.att_W = att_W
        self.self_W = self_W
        self.blocks = blocks  # direction -> Parameter


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
            out += [lw.att_W, lw.self_W] + [lw.blocks[d] for d in DIRECTIONS]
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
    matrices (per block for the stacked relation blocks) and 1/sqrt(width)
    for embedding-like tables; `std-normal` draws every weight from N(0,1).
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

    d, b = config.embed_dim, config.num_blocks

    embedding = Parameter(
        "embedding", _draw(rng, (num_entities, d), 1.0 / np.sqrt(d), init))
    layers = []
    for layer in range(config.num_layers):
        w_std = np.sqrt(2.0 / (d + d))
        att_W = Parameter(f"layer{layer}.att_w",
                          _draw(rng, (d, d), w_std, init))
        self_W = Parameter(f"layer{layer}.self_w",
                           _draw(rng, (d, d), w_std, init))
        q_std = np.sqrt(2.0 / (d // b + d // b))
        blocks = {
            direction: Parameter(
                f"layer{layer}.{direction}.blocks",
                _draw(rng, (num_relations * d, d // b), q_std, init),
                regularized=task == "classify")
            for direction in DIRECTIONS}
        layers.append(LayerWeights(att_W, self_W, blocks))
    gates = Parameter("fusion.gates", np.ones((num_relations, 1)))

    kwargs = {}
    if task == "classify":
        kwargs["head"] = Parameter(
            "classify.head",
            _draw(rng, (d, num_classes), np.sqrt(2.0 / (d + num_classes)), init))
    elif decoder == "complex":
        if d % 2:
            raise ValueError(f"complex decoder needs an even embed_dim, got {d}")
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


def rebuild_params(arrays, regularized, config, num_relations, task,
                   decoder):
    """Reassemble a ModelParams from a name->array mapping (see snapshot).

    Raises SnapshotError for a parameter that is missing or whose shape
    differs from the one config and num_relations fix. Embedding rows and
    classification-head columns are the dataset's to check.
    """
    def array(name, shape):
        if name not in arrays:
            raise SnapshotError(f"snapshot missing parameter {name!r}")
        values = arrays[name]
        if len(values.shape) != len(shape) or any(
                want is not None and want != got
                for got, want in zip(values.shape, shape)):
            want = ", ".join("*" if n is None else str(n) for n in shape)
            raise SnapshotError(f"parameter {name!r} has shape "
                                f"{values.shape}, expected ({want})")
        return values

    def param(name, shape):
        return Parameter(name, array(name, shape),
                         regularized=regularized[name])

    d, b = config.embed_dim, config.num_blocks

    def stacked_blocks(prefix):
        name = f"{prefix}.blocks"
        if name in arrays or f"{prefix}.rel0.blocks" not in arrays:
            return param(name, (num_relations * d, d // b))
        # a snapshot written before the relation weights were stacked
        rels = [f"{prefix}.rel{r}.blocks" for r in range(num_relations)]
        return Parameter(name, np.concatenate(
            [array(n, (d, d // b)) for n in rels]), regularized[rels[0]])

    layers = []
    for layer in range(config.num_layers):
        blocks = {direction: stacked_blocks(f"layer{layer}.{direction}")
                  for direction in DIRECTIONS}
        layers.append(LayerWeights(param(f"layer{layer}.att_w", (d, d)),
                                   param(f"layer{layer}.self_w", (d, d)),
                                   blocks))
    if task == "classify":
        heads = {"head": param("classify.head", (d, None))}
    elif decoder == "complex":
        heads = {"rel_re": param("decoder.rel_re", (num_relations, d // 2)),
                 "rel_im": param("decoder.rel_im", (num_relations, d // 2))}
    else:
        heads = {"rel_diag": param("decoder.rel_diag", (num_relations, d))}
    return ModelParams(param("embedding", (None, d)), layers,
                       param("fusion.gates", (num_relations, 1)), **heads)
