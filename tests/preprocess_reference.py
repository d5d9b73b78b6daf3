"""Line-by-line re-implementation of the raw-file reader and the id map of
`kgar preprocess`, used as a test oracle.

Everything here is deliberately plain: one Python loop over the lines of a
file, one tuple per row and one dict lookup per name. It shares no code
with the package's column-wise reader and vocabulary builder, which must
agree with it exactly.
"""

from __future__ import annotations

import os

import numpy as np

from kgar.data import DataError


def read_rows(path, width=3):
    """The (field, ...) tuple of each data line; blank lines and `#`
    comments are skipped."""
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != width:
                raise DataError(
                    f"{path}:{lineno}: expected {width} tab-separated "
                    f"fields, got {len(parts)}")
            rows.append(tuple(parts))
    return rows


def id_map(dataset_dir):
    """(entity names, relation names, {split: (n, 3) int64 rows}) of a
    link-prediction directory with nothing dropped: ids by first
    appearance over train, valid, test and, within a row, h, r, t."""
    entities, relations, splits = {}, {}, {}
    for split in ("train", "valid", "test"):
        rows = [(entities.setdefault(h, len(entities)),
                 relations.setdefault(r, len(relations)),
                 entities.setdefault(t, len(entities)))
                for h, r, t in read_rows(
                    os.path.join(dataset_dir, f"{split}.tsv"))]
        splits[split] = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return list(entities), list(relations), splits
