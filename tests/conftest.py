"""Shared toy fixtures: a 6-node, 3-relation graph, parameter builders,
single-triple scoring, the training step's L2 term and the attention
weights a directional pass gives a score column."""

from types import SimpleNamespace

import numpy as np
import pytest

from kgar import tensor as T
from kgar.encoder import attention_relational_aggregate
from kgar.config import RunConfig
from kgar.data import KnowledgeGraph
from kgar.decoders import score_triples
from kgar.model import init_params
from kgar.tensor import Tensor

# node 1 has two relation-0 in-edges (a real attention group), node 3 mixes
# relations, every relation occurs in both directions somewhere
TOY_TRIPLES = [
    (0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 2, 4), (4, 0, 5),
    (5, 1, 0), (0, 2, 3), (2, 0, 1), (4, 1, 1), (3, 0, 0),
]
TOY_NODES = 6
TOY_RELATIONS = 3
TOY_LABELS = {0: 0, 1: 1, 2: 2, 3: 3, 4: 0, 5: 1}  # 4 classes


@pytest.fixture
def toy_graph():
    return KnowledgeGraph(TOY_TRIPLES, TOY_NODES, TOY_RELATIONS)


def toy_config(embed_dim=8, num_layers=2, num_blocks=2, **kw):
    kw.setdefault("dropout_attention", 0.0)
    kw.setdefault("dropout_conv", 0.0)
    return RunConfig(embed_dim=embed_dim, num_layers=num_layers,
                     num_blocks=num_blocks, **kw)


def toy_params(config, task="classify", seed=0, num_classes=4,
               decoder="complex", num_entities=TOY_NODES,
               num_relations=TOY_RELATIONS):
    rng = np.random.default_rng(seed)
    return init_params(num_entities, num_relations, config, task, rng,
                       num_classes=num_classes, decoder=decoder)


def with_l2(data_loss, params, coefficient, feats=None, samples=None):
    """`data_loss` plus the L2 term that `training.train` adds: the
    `regularized` parameters and, given `feats` and an (n, 3) `samples`
    array, the gathered head and tail rows, repeats included."""
    rows = [] if feats is None else [
        T.gather_rows(feats, np.asarray(samples)[:, [0, 2]].ravel())]
    penalized = [p for p in params if p.regularized]
    return T.add(data_loss, T.l2_penalty(penalized + rows, coefficient))


def attention_weights(graph, scores, direction):
    """The attention weight of each edge of the direction's plan, in plan
    order, as the directional pass computes it from the (E,1) score
    column `scores`. It is read from the pass's output: with one-hot
    states, relation r's block sending state j to column r*V + j and no
    self term, out[dst, r*V + src] is the weight of edge src -r-> dst (the
    sum of them, for a triple that repeats). Every product is by 1.0 or
    0.0 and every sum adds zeros, so the weights are exact."""
    n, nr = graph.num_entities, graph.num_relations
    plan = graph.plan(direction)
    out = attention_relational_aggregate(
        Tensor(np.eye(n)), scores, plan, Tensor(np.eye(nr * n)),
        1, Tensor(np.zeros((n, nr * n))), layer=0, direction=direction).values
    rels = np.repeat(np.arange(nr), np.diff(plan.rel_starts))
    return out[plan.dst, rels * n + plan.src]


def relation_rows(params, layer, direction):
    """Writable (R, D_in, D_out/B) view of one stacked relation-weight
    parameter: entry r is relation r's blocks, stacked vertically."""
    q = params.layers[layer].blocks[direction]
    return q.values.reshape(params.gates.shape[0], -1, q.shape[1],
                            copy=False)


def to_oracle_params(params, num_blocks):
    """Convert package ModelParams to the scalar oracle's nested lists."""
    layers = []
    for layer, lw in enumerate(params.layers):
        blocks = {}
        for direction, key in (("forward", "fwd"), ("backward", "bwd")):
            rel_map = {}
            for r, q in enumerate(relation_rows(params, layer, direction)):
                din_b = q.shape[0] // num_blocks
                rel_map[r] = [q[k * din_b:(k + 1) * din_b].tolist()
                              for k in range(num_blocks)]
            blocks[key] = rel_map
        layers.append({"att_W": lw.att_W.values.tolist(),
                       "self_W": lw.self_W.values.tolist(),
                       "blocks": blocks})
    out = {
        "embedding": params.embedding.values.tolist(),
        "layers": layers,
        "gates": params.gates.values[:, 0].tolist(),
    }
    if params.head is not None:
        out["cls_W"] = params.head.values.tolist()
    if params.rel_re is not None:
        out["rel_re"] = params.rel_re.values.tolist()
        out["rel_im"] = params.rel_im.values.tolist()
    if params.rel_diag is not None:
        out["rel_diag"] = params.rel_diag.values.tolist()
    return out


def antisymmetric_relations(patterns):
    return {rel for rel, info in patterns.items()
            if info["type"] == "antisymmetric_chain"}


def relation_params(**relations):
    """A stand-in for ModelParams that holds only the given relation
    embeddings, as ComplEx's rel_re and rel_im or DistMult's rel_diag."""
    return SimpleNamespace(**{"rel_re": None, "rel_im": None,
                              "rel_diag": None, **relations})


def complex_score(s, r, o, feats, rel_re, rel_im):
    """ComplEx score of one triple through `decoders.score_triples`."""
    return _score((s, r, o), feats, rel_re=rel_re, rel_im=rel_im)


def distmult_score(s, r, o, feats, rel_diag):
    """DistMult score of one triple through `decoders.score_triples`."""
    return _score((s, r, o), feats, rel_diag=rel_diag)


def _score(triple, feats, **relations):
    params = relation_params(**{name: Tensor(w)
                                for name, w in relations.items()})
    return score_triples(params, Tensor(feats), np.array([triple])).item()
