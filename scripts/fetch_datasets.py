#!/usr/bin/env python3
"""Dataset sources and converters for the expected on-disk layout.

Fetching is manual: download the archives below, then convert them here.
The package expects, under $KGAR_DATA_DIR/<name>/:

  link prediction    train.tsv valid.tsv test.tsv      (head TAB rel TAB tail)
  classification     train.tsv                          (the full graph)
                     labels_train.tsv labels_test.tsv  (entity TAB class)

Run `fetch_datasets.py --list` for per-dataset URLs and the exact convert
invocation. Conversion needs no third-party packages for N-Triples input;
for the AIFB .n3 file install rdflib (`pip install rdflib`) or convert it
to N-Triples first (e.g. `rapper -i turtle -o ntriples in.n3 > out.nt`).
"""

import argparse
import csv
import os
import re
import sys

SOURCES = {
    "aifb": {
        "task": "classification",
        "url": "https://data.dgl.ai/dataset/rdf/aifb-hetero.zip",
        "graph": "aifbfixed_complete.n3",
        "entity_column": "person",
        "label_column": "label_affiliation",
    },
    "mutag": {
        "task": "classification",
        "url": "https://data.dgl.ai/dataset/rdf/mutag-hetero.zip",
        "graph": "mutag_stripped.nt",
        "entity_column": "bond",
        "label_column": "label_mutagenic",
    },
    "bgs": {
        "task": "classification",
        "url": "https://data.dgl.ai/dataset/rdf/bgs-hetero.zip",
        "graph": "bgs_stripped.nt",
        "entity_column": "rock",
        "label_column": "label_lithogenesis",
    },
    "am": {
        "task": "classification",
        "url": "https://data.dgl.ai/dataset/rdf/am-hetero.zip",
        "graph": "am_stripped.nt",
        "entity_column": "proxy",
        # the published label file spells the column this way
        "label_column": "label_cateogory",
    },
    "fb15k-237": {
        "task": "link prediction",
        "url": ("https://download.microsoft.com/download/8/7/0/"
                "8700516A-AB3D-4850-B4BB-805C515AECE1/FB15K-237.2.zip"),
        "files": "train.txt valid.txt test.txt",
    },
}

# one <iri>, _:blank, or "literal"(^^<dt>|@lang)? term
_TERM = re.compile(
    r'<([^>]*)>|(_:\S+)|"((?:[^"\\]|\\.)*)"(?:\^\^<[^>]*>|@[\w-]+)?')


def _utf8_lines(path, **open_args):
    """The lines of a text file, read as it is consumed. A file that is
    not UTF-8 stops the conversion, naming the file."""
    try:
        with open(path, encoding="utf-8", **open_args) as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise SystemExit(f"{path}: not UTF-8 text ({exc})")


def _parse_nt_line(line, path, lineno):
    terms = []
    pos = 0
    for _ in range(3):
        while pos < len(line) and line[pos] in " \t":
            pos += 1
        m = _TERM.match(line, pos)
        if not m:
            raise SystemExit(f"{path}:{lineno}: cannot parse term at "
                             f"column {pos + 1}")
        terms.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    rest = line[pos:].strip()
    if rest != ".":
        raise SystemExit(f"{path}:{lineno}: expected terminating '.'")
    return terms


def _iter_graph_triples(path):
    if path.endswith(".nt"):
        for lineno, line in enumerate(_utf8_lines(path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield _parse_nt_line(line, path, lineno)
        return
    try:
        import rdflib
    except ImportError:
        raise SystemExit(
            f"{path}: only .nt files are parsed natively; install rdflib "
            "or convert this file to N-Triples first (e.g. `rapper -i "
            "turtle -o ntriples`)")
    g = rdflib.Graph()
    g.parse(path)
    for s, p, o in g:
        yield str(s), str(p), str(o)


def _write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")


def _sanitize(value):
    return value.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def cmd_list(_args):
    for name, info in SOURCES.items():
        print(f"{name} ({info['task']})")
        print(f"  download: {info['url']}")
        if "graph" in info:
            print(f"  unzip, then: python3 scripts/fetch_datasets.py "
                  f"convert-rdf --graph {info['graph']} "
                  f"--labels-train trainingSet.tsv --labels-test testSet.tsv "
                  f"--entity-column {info['entity_column']} "
                  f"--label-column {info['label_column']} "
                  f"--out $KGAR_DATA_DIR/{name}")
        else:
            print(f"  unzip ({info['files']}), then: python3 "
                  f"scripts/fetch_datasets.py convert-fb15k237 "
                  f"--src <unzipped dir> --out $KGAR_DATA_DIR/{name}")
        print(f"  finally: kgar preprocess --dataset {name}")
        print()
    return 0


def _read_label_tsv(path, entity_column, label_column):
    """The (entity, label) rows of a label TSV, by header column. A row
    with fewer fields than the header stops the conversion, naming its
    file and line."""
    reader = csv.DictReader(_utf8_lines(path, newline=""), delimiter="\t")
    missing = {entity_column, label_column} - set(reader.fieldnames or ())
    if missing:
        raise SystemExit(f"{path}: column(s) {sorted(missing)} not in "
                         f"header {reader.fieldnames}")
    rows = []
    for row in reader:
        # DictReader fills the fields a short row lacks with None
        if None in row.values():
            raise SystemExit(f"{path}:{reader.line_num}: fewer "
                             f"tab-separated fields than the header's "
                             f"{len(reader.fieldnames)}")
        rows.append((_sanitize(row[entity_column]),
                     _sanitize(row[label_column])))
    return rows


def cmd_convert_rdf(args):
    # the graph and both label files are read and checked before anything
    # is written
    triples = [tuple(_sanitize(t) for t in triple)
               for triple in _iter_graph_triples(args.graph)]
    labels = {name: _read_label_tsv(path, args.entity_column,
                                    args.label_column)
              for name, path in (("labels_train.tsv", args.labels_train),
                                 ("labels_test.tsv", args.labels_test))}
    os.makedirs(args.out, exist_ok=True)
    _write_tsv(os.path.join(args.out, "train.tsv"), triples)
    for name, rows in labels.items():
        _write_tsv(os.path.join(args.out, name), rows)
    print(f"done; next: kgar preprocess --dataset {args.out}")
    return 0


def _read_fb15k237_split(path):
    """The (head, rel, tail) rows of one FB15K-237 split file. Blank lines
    are skipped; any other line without three tab-separated fields stops
    the conversion, naming its file and line."""
    if not os.path.exists(path):
        raise SystemExit(f"{path}: file not found")
    rows = []
    for lineno, line in enumerate(_utf8_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SystemExit(f"{path}:{lineno}: expected 3 tab-separated "
                             f"fields, got {len(parts)}")
        rows.append(tuple(parts))
    return rows


def cmd_convert_fb15k237(args):
    # every split is read and checked before anything is written
    splits = {dst_name: _read_fb15k237_split(os.path.join(args.src, src_name))
              for src_name, dst_name in (("train.txt", "train.tsv"),
                                         ("valid.txt", "valid.tsv"),
                                         ("test.txt", "test.tsv"))}
    os.makedirs(args.out, exist_ok=True)
    for dst_name, rows in splits.items():
        _write_tsv(os.path.join(args.out, dst_name), rows)
    print(f"done; next: kgar preprocess --dataset {args.out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("convert-rdf", help="RDF graph + label TSVs -> "
                       "classification layout")
    p.add_argument("--graph", required=True, help=".nt (or, with rdflib "
                   "installed, any RDF) graph file")
    p.add_argument("--labels-train", required=True)
    p.add_argument("--labels-test", required=True)
    p.add_argument("--entity-column", required=True)
    p.add_argument("--label-column", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert_rdf)

    p = sub.add_parser("convert-fb15k237", help="unzipped FB15K-237 "
                       "train/valid/test.txt -> link-prediction layout")
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert_fb15k237)

    parser.add_argument("--list", action="store_true",
                        help="print download URLs and convert invocations")
    args = parser.parse_args(argv)
    if args.command is None:
        return cmd_list(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
