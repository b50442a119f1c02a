#!/bin/bash
# Regenerate results/*.txt: every table, figure and ablation at bench
# scale from one simulation pass (see results/README.md).
set -e
cd "$(dirname "$0")"
cargo run --release -p raccd-bench --bin figures -- --scale bench --out results
