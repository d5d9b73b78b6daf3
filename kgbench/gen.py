"""Seeded, Zipf-skewed random knowledge graphs written as TSV dataset dirs.

Real knowledge graphs are skewed: a few relations and hub entities carry
most triples. The generator draws relations with probability proportional
to 1/rank**relation_skew and heads and tails with probability proportional
to 1/rank**entity_skew, over a seeded random ranking of ids. Every entity
first gets one covering triple, so each one occurs in training. Triples
are unique across all splits, so the filtered ranking protocol removes
exactly the other known positives.
"""

from __future__ import annotations

import os

import numpy as np

# generator parameters per workload; the values are part of the benchmark
# definition and recorded in BENCHMARK.json's workload reasons. The counts
# of rank-fb15k-size are FB15K-237's entity, relation and training-triple
# counts (Toutanova & Chen, 2015). Its two skews are chosen, not fitted:
# they have not been compared with FB15K-237's relation frequencies or
# degree distribution, so the graph has that dataset's size, not its shape.
GRAPHS = {
    "rank-fb15k-size": dict(num_entities=14541, num_relations=237,
                             num_train=272115, num_valid=2000,
                             num_test=2000, relation_skew=1.0,
                             entity_skew=0.8),
}


def _zipf_probs(n, skew, rng):
    """Probabilities 1/rank**skew assigned to ids in a seeded random order."""
    weights = 1.0 / np.arange(1, n + 1) ** skew
    probs = np.empty(n)
    probs[rng.permutation(n)] = weights / weights.sum()
    return probs


def generate(seed, num_entities, num_relations, num_train, num_valid,
             num_test, relation_skew, entity_skew):
    """Return {"train", "valid", "test"} as (n, 3) int64 id arrays."""
    total = num_train + num_valid + num_test
    if total > num_entities * (num_entities - 1) * num_relations // 4:
        raise ValueError("too many triples for a sparse graph of this size")
    if num_train < num_entities:
        raise ValueError("num_train must cover every entity once")
    rng = np.random.default_rng(seed)
    rel_p = _zipf_probs(num_relations, relation_skew, rng)
    ent_p = _zipf_probs(num_entities, entity_skew, rng)

    # covering triples: entity i meets a Zipf-drawn partner, on a random side
    ids = np.arange(num_entities)
    partners = rng.choice(num_entities, num_entities, p=ent_p)
    partners = np.where(partners == ids, (partners + 1) % num_entities,
                        partners)
    as_head = rng.random(num_entities) < 0.5
    cover = np.stack([np.where(as_head, ids, partners),
                      rng.choice(num_relations, num_entities, p=rel_p),
                      np.where(as_head, partners, ids)], axis=1)

    seen = set()
    rows = []
    for row in map(tuple, cover.tolist()):
        if row not in seen:
            seen.add(row)
            rows.append(row)
    num_cover = len(rows)
    while len(rows) < total:
        need = total - len(rows)
        draw = np.stack([rng.choice(num_entities, need, p=ent_p),
                         rng.choice(num_relations, need, p=rel_p),
                         rng.choice(num_entities, need, p=ent_p)], axis=1)
        for row in map(tuple, draw.tolist()):
            if row[0] != row[2] and row not in seen and len(rows) < total:
                seen.add(row)
                rows.append(row)
    rows = np.array(rows, dtype=np.int64)
    # held-out triples come from the non-covering rows only
    held = num_cover + rng.choice(total - num_cover, num_valid + num_test,
                                  replace=False)
    keep = np.ones(total, dtype=bool)
    keep[held] = False
    return {"train": rows[keep], "valid": rows[held[:num_valid]],
            "test": rows[held[num_valid:]]}


def write_dataset(out_dir, splits):
    """Write train/valid/test TSVs of entity and relation names."""
    os.makedirs(out_dir, exist_ok=True)
    for split in ("train", "valid", "test"):
        lines = [f"e{h:05d}\tr{r:03d}\te{t:05d}\n"
                 for h, r, t in splits[split].tolist()]
        with open(os.path.join(out_dir, f"{split}.tsv"), "w",
                  encoding="utf-8") as fh:
            fh.writelines(lines)
    return out_dir
