"""Model parameter containers, initialization, and task wiring."""

from __future__ import annotations

import numpy as np

from .data import DIRECTIONS
from .snapshot import SnapshotError
from .tensor import Parameter

TASKS = ("classify", "linkpred")
# the first entry of DECODERS and of INITS is the default, for
# init_params and RunConfig alike
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
    """All learned weights for one task, from a name -> Parameter mapping
    built in `schema` order.

    `head` is the classification weight (D x K); `rel_re`/`rel_im` the
    complex relation embeddings; `rel_diag` the diagonal relation vectors
    of the DistMult baseline. Exactly the fields the task needs are set.
    """

    def __init__(self, params, num_layers):
        self._params = list(params.values())
        self.embedding = params["embedding"]
        self.layers = [
            LayerWeights(params[f"layer{layer}.att_w"],
                         params[f"layer{layer}.self_w"],
                         {direction: params[f"layer{layer}.{direction}.blocks"]
                          for direction in DIRECTIONS})
            for layer in range(num_layers)]
        self.gates = params["fusion.gates"]
        self.head = params.get("classify.head")
        self.rel_re = params.get("decoder.rel_re")
        self.rel_im = params.get("decoder.rel_im")
        self.rel_diag = params.get("decoder.rel_diag")

    def all_params(self):
        """Every parameter, in `schema` order."""
        return list(self._params)


def schema(num_entities, num_relations, config, task, decoder, num_classes):
    """The model's parameters as (name, shape, init std, regularized)
    entries, in the order `init_params` draws them in, which
    `ModelParams.all_params()` keeps.

    Weight matrices have std sqrt(2/(fan_in+fan_out)) (per block for the
    stacked relation blocks), embedding-like tables 1/sqrt(width). The
    fusion gates' std is "ones": they start at 1.0 under either init and
    take no draw, which reduces the fusion readout to plain neighbor
    summation at initialization. `num_classes` is read for classify only.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    if decoder not in DECODERS:
        raise ValueError(f"decoder must be one of {DECODERS}, got {decoder!r}")
    if task == "classify" and not num_classes:
        raise ValueError("classify task needs num_classes")
    d, b = config.embed_dim, config.num_blocks
    w_std = np.sqrt(2.0 / (d + d))
    q_std = np.sqrt(2.0 / (d // b + d // b))
    out = [("embedding", (num_entities, d), 1.0 / np.sqrt(d), False)]
    for layer in range(config.num_layers):
        out += [(f"layer{layer}.att_w", (d, d), w_std, False),
                (f"layer{layer}.self_w", (d, d), w_std, False)]
        out += [(f"layer{layer}.{direction}.blocks",
                 (num_relations * d, d // b), q_std, task == "classify")
                for direction in DIRECTIONS]
    out.append(("fusion.gates", (num_relations, 1), "ones", False))
    if task == "classify":
        out.append(("classify.head", (d, num_classes),
                    np.sqrt(2.0 / (d + num_classes)), False))
    elif decoder == "complex":
        std = 1.0 / np.sqrt(d // 2)
        out += [(name, (num_relations, d // 2), std, True)
                for name in ("decoder.rel_re", "decoder.rel_im")]
    else:
        out.append(("decoder.rel_diag", (num_relations, d), 1.0 / np.sqrt(d),
                    True))
    return out


def init_params(num_entities, num_relations, config, task, rng,
                num_classes=None, decoder=DECODERS[0], init=INITS[0]):
    """Create freshly initialized ModelParams from `schema`.

    `scaled` draws each weight from N(0, std^2) with the schema's std;
    `std-normal` draws every weight from N(0,1).
    """
    if init not in INITS:
        raise ValueError(f"init must be one of {INITS}, got {init!r}")
    params = {}
    for name, shape, std, regularized in schema(
            num_entities, num_relations, config, task, decoder, num_classes):
        if std == "ones":
            values = np.ones(shape)
        elif init == "std-normal":
            values = rng.standard_normal(shape)
        else:
            values = rng.normal(0.0, std, shape)
        params[name] = Parameter(name, values, regularized)
    return ModelParams(params, config.num_layers)


def _checked(arrays, name, shape):
    if name not in arrays:
        raise SnapshotError(f"snapshot missing parameter {name!r}; a "
                            "snapshot of another model layout must be "
                            "retrained")
    values = arrays[name]
    if values.shape != shape:
        raise SnapshotError(f"parameter {name!r} has shape {values.shape}, "
                            f"expected {shape}")
    if not np.isfinite(values).all():
        raise SnapshotError(f"parameter {name!r} has non-finite values")
    return values


def rebuild_params(arrays, config, num_entities, num_relations, num_classes):
    """Reassemble a ModelParams from a name->array mapping (see snapshot),
    in the layout of `config.task` and `config.decoder`.

    Raises SnapshotError for a parameter that is missing, whose shape
    differs from its `schema` shape (dataset counts included), that holds
    a NaN or an infinity, or that the schema does not list. The
    `regularized` flags come from the schema.
    """
    params = {}
    for name, shape, _, regularized in schema(
            num_entities, num_relations, config, config.task, config.decoder,
            num_classes):
        params[name] = Parameter(name, _checked(arrays, name, shape),
                                 regularized)
    unused = sorted(set(arrays) - set(params))
    if unused:
        raise SnapshotError(f"snapshot holds parameters {unused} that the "
                            "model does not use")
    return ModelParams(params, config.num_layers)
