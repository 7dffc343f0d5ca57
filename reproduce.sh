#!/usr/bin/env sh
# Build, test, and regenerate every table/figure of the DARE reproduction.
# Outputs land in test_output.txt and bench_output.txt next to this script.
set -e
cd "$(dirname "$0")"

cmake -B build -S .
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "##### $b" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
done

echo "Done. See EXPERIMENTS.md for the paper-vs-measured discussion."
