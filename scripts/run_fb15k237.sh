#!/usr/bin/env bash
# Full-scale FB15K-237 link-prediction run.
#
# This is an extended experiment, not part of the desk-checked test suite:
# it needs the dataset on disk (see scripts/fetch_datasets.py --list) and,
# at the D=500 settings below, about 29 hours on a 2-vCPU machine (17.3-
# 17.7 s of CPU time per iteration, see "Measured at this re-anchor" in
# ROADMAP.md, and a 1.47 GB peak RSS over four Adam iterations; both
# measured on a random graph of FB15K-237's size). Targets for a healthy
# run with the default full-scale settings below:
#
#   filtered MRR     >= 0.20
#   filtered Hits@10 >= 0.35
#
# Numbers are appended to results/fb15k237.log so repeat runs accumulate.

set -euo pipefail

DATA_DIR="${KGAR_DATA_DIR:?set KGAR_DATA_DIR to the directory holding fb15k-237/}"
SEED="${SEED:-0}"
RESULTS_DIR="${RESULTS_DIR:-results}"
RUN_DIR="$DATA_DIR/fb15k-237/runs"

mkdir -p "$RESULTS_DIR"

kgar preprocess --dataset fb15k-237

kgar train \
  --dataset fb15k-237 \
  --seed "$SEED" \
  --decoder complex \
  --embed-dim 500 \
  --num-layers 2 \
  --num-blocks 10 \
  --batch-size 512 \
  --iterations 6000 \
  --eval-interval 500 \
  --out "$RUN_DIR"

SNAPSHOT="$RUN_DIR/snapshot-linkpred-seed$SEED-complex.kgar"
REPORT="$RESULTS_DIR/fb15k237-seed$SEED.csv"

kgar evaluate \
  --snapshot "$SNAPSHOT" \
  --dataset fb15k-237 \
  --csv "$REPORT"

{
  echo "run $(date -u +%Y-%m-%dT%H:%M:%SZ) seed=$SEED snapshot=$SNAPSHOT"
  cat "$REPORT"
  echo
} >> "$RESULTS_DIR/fb15k237.log"

echo "appended metrics to $RESULTS_DIR/fb15k237.log"
echo "check: filtered MRR >= 0.20 and filtered Hits@10 >= 0.35"
