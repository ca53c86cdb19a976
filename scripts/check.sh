#!/usr/bin/env bash
# One-command verification: configure, build, test, and regenerate every
# paper table/figure. Mirrors the commands recorded in README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
python3 scripts/check_orphans.py

echo
echo "== regenerating all paper tables/figures =="
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] && "$b"
done
