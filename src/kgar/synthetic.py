"""Bundled synthetic link-prediction dataset with planted relation patterns.

Two relation families over ~200 entities:

* symmetric relations `sym_k`: random undirected pairs. Training holds
  both directions of most pairs but only one direction of a held-out
  subset, whose reversals form the valid/test triples; the observed
  direction makes each held-out triple individually inferable.
* antisymmetric chain relations `anti_k`, in evidence/inferable pairs
  (`anti_0` with `anti_1`, `anti_2` with `anti_3`): both relations of a
  pair hold on exactly the same entity pairs, and every pair points from
  a lower id-group to a higher one. The evidence relation is fully
  trained; held-out edges of the inferable relation form the valid/test
  triples, each implied by its trained twin. Reversals are never true, so
  a scorer that cannot represent direction ranks the (false) reversed
  triples alongside the true ones and loses filtered MRR here.

The generator is seed-deterministic, and `patterns.json` ships the ground
truth per relation so metric expectations are recomputable.
"""

from __future__ import annotations

import json
import os

import numpy as np

DEFAULT_SEED = 31


def _entity(i):
    return f"e{i:03d}"


def _split_indices(rng, count, num_test, num_valid):
    held = rng.choice(count, num_test + num_valid, replace=False)
    return set(held[:num_test].tolist()), set(held[num_test:].tolist())


def generate(seed=DEFAULT_SEED, num_entities=200, num_symmetric=4,
             num_anti_pairs=2, pairs_per_symmetric=80, pairs_per_anti=150,
             num_groups=10, sym_test=12, sym_valid=6, anti_test=24,
             anti_valid=12):
    """Build the raw string triples of all three splits plus the pattern map."""
    if num_entities % num_groups:
        raise ValueError("num_groups must divide num_entities")
    rng = np.random.default_rng(seed)
    train, valid, test = [], [], []
    patterns = {}

    for k in range(num_symmetric):
        rel = f"sym_{k}"
        patterns[rel] = {"type": "symmetric"}
        pairs = set()
        while len(pairs) < pairs_per_symmetric:
            a, b = rng.integers(0, num_entities, 2)
            if a != b:
                pairs.add((int(min(a, b)), int(max(a, b))))
        pairs = sorted(pairs)
        test_idx, valid_idx = _split_indices(rng, len(pairs), sym_test,
                                             sym_valid)
        for idx, (a, b) in enumerate(pairs):
            train.append((_entity(a), rel, _entity(b)))
            rev = (_entity(b), rel, _entity(a))
            if idx in test_idx:
                test.append(rev)
            elif idx in valid_idx:
                valid.append(rev)
            else:
                train.append(rev)

    group_size = num_entities // num_groups
    for k in range(num_anti_pairs):
        evidence, inferable = f"anti_{2 * k}", f"anti_{2 * k + 1}"
        chain = {"type": "antisymmetric_chain", "num_groups": num_groups,
                 "group_size": group_size}
        patterns[evidence] = dict(chain, role="evidence",
                                  paired_with=inferable)
        patterns[inferable] = dict(chain, role="inferable",
                                   paired_with=evidence)
        pairs = set()
        while len(pairs) < pairs_per_anti:
            gi, gj = sorted(rng.choice(num_groups, 2, replace=False).tolist())
            a = gi * group_size + int(rng.integers(0, group_size))
            b = gj * group_size + int(rng.integers(0, group_size))
            pairs.add((a, b))
        pairs = sorted(pairs)
        test_idx, valid_idx = _split_indices(rng, len(pairs), anti_test,
                                             anti_valid)
        for idx, (a, b) in enumerate(pairs):
            train.append((_entity(a), evidence, _entity(b)))
            twin = (_entity(a), inferable, _entity(b))
            if idx in test_idx:
                test.append(twin)
            elif idx in valid_idx:
                valid.append(twin)
            else:
                train.append(twin)

    # every entity must occur in training so its encoding is informed;
    # attach strays symmetrically to keep the planted semantics intact
    seen = {name for h, _, t in train for name in (h, t)}
    for i in range(num_entities):
        if _entity(i) not in seen:
            j = int(rng.integers(0, num_entities - 1))
            if j >= i:
                j += 1
            train.append((_entity(i), "sym_0", _entity(j)))
            train.append((_entity(j), "sym_0", _entity(i)))

    return {"train": train, "valid": valid, "test": test,
            "patterns": patterns}


def write_dataset(out_dir, data=None, **kw):
    """Write train/valid/test TSVs and patterns.json; returns out_dir."""
    if data is None:
        data = generate(**kw)
    os.makedirs(out_dir, exist_ok=True)
    for split in ("train", "valid", "test"):
        with open(os.path.join(out_dir, f"{split}.tsv"), "w",
                  encoding="utf-8") as fh:
            for h, r, t in data[split]:
                fh.write(f"{h}\t{r}\t{t}\n")
    with open(os.path.join(out_dir, "patterns.json"), "w",
              encoding="utf-8") as fh:
        json.dump(data["patterns"], fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def ensure_dataset(out_dir):
    """Generate the bundled dataset into out_dir unless already present."""
    needed = ["train.tsv", "valid.tsv", "test.tsv", "patterns.json"]
    if all(os.path.exists(os.path.join(out_dir, f)) for f in needed):
        return out_dir
    return write_dataset(out_dir)

