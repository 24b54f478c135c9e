#!/usr/bin/env bash
# Checks the int8 floors on the saved standard output of a traced
# perfbench attack run (ci.sh and .github/workflows/ci.yml):
#
#   ./ci_floors.sh <perfbench-output>
#
# Both floors are ratios taken inside the one run: the serial 192^3 int8
# GEMM at least 2x faster than f32, and whole-model int8 eval at least
# 1.5x faster than f32. perfbench prints one `name value unit` line per
# metric; each floored metric must appear on exactly one such line,
# with a plain decimal value at or above its floor. A missing,
# repeated, cut-off or non-numeric line fails like a value below the
# floor. Exits 0 only when every floor holds.
set -euo pipefail

FLOORS=(nn.gemm_i8_speedup=2 nn.int8_eval_speedup=1.5)

if (($# != 1)); then
  echo "usage: $0 <perfbench-output>" >&2
  exit 2
fi
out=$1

status=0
for floor in "${FLOORS[@]}"; do
  metric=${floor%%=*}
  min=${floor#*=}
  if ! awk -v m="$metric" -v min="$min" '
      $1 == m { n++; v = $2; nf = NF }
      END {
        if (n != 1) {
          printf "FAILED %s: expected one line, found %d\n", m, n
          exit 1
        }
        if (nf != 3 || v !~ /^[0-9]+([.][0-9]+)?([eE][-+]?[0-9]+)?$/) {
          printf "FAILED %s: not a `name value unit` line with a numeric value\n", m
          exit 1
        }
        if (v + 0 < min + 0) {
          printf "FAILED %s = %s, below the floor %s\n", m, v, min
          exit 1
        }
        printf "ok %s = %s (floor %s)\n", m, v, min
      }' "$out"; then
    status=1
  fi
done
exit "$status"
