#!/usr/bin/env bash
# same_output.sh — byte-identity gate between the working tree and <rev>.
#
# Builds the command-line tools and the examples twice, once from <rev>
# (exported with `git archive` into a temporary directory, so nothing is
# registered in the repository's .git) and once from the working tree, and
# runs both builds on the same commands:
#
#   - postcard-figs -fig N -q -csv DIR for N = 4..7 with every registry
#     scheduler (stdout and the CSV files);
#   - the 64-DC run: postcard-figs -fig 4 -dcs 64 -runs 1 -slots 6 with
#     postcard,postcard-warm,postcard-path;
#   - postcard-sim -dcs 24 -maxt 3 -slots 16 -scheduler postcard-path;
#   - postcard-solve with every registry scheduler, on the built-in instance
#     and on cmd/postcard-solve/testdata/relay.json, as text and as -json;
#   - every examples/*/main.go.
#
# Each command's stdout, stderr and exit status are compared after Go
# durations (90ms, 2.77s, 1m3.2s, ...) and the padding around them are
# masked. Any other difference prints a unified diff and exits 1. Registry
# names come from the working tree's `postcard-solve -scheduler help`.
#
# Moved-output mode: names after <rev> are allowed to move. A scheduler
# name prints, for every figure and the 64-DC run, its run cost and drops
# old -> new with the relative change, and its figure rows (the 64-DC
# run's included), CSV columns and postcard-solve outputs leave the
# comparison. The name of the 24-DC postcard-sim run's scheduler
# (postcard-path) also prints that run's final cost and drops old -> new
# and leaves it out. An `example-<dir>` name prints that example's diff
# and leaves it out too. Any other difference still prints a unified diff
# and exits 1.
#
# Usage:  scripts/same_output.sh <rev> [name...]
#         (e.g. scripts/same_output.sh HEAD, or
#          scripts/same_output.sh HEAD~ flow-based example-budget-planner)
# Env:    TMPDIR   where the temporary copy, binaries and outputs go
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/same_output.sh <rev> [name...]}"
shift
moved=("$@")
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "same_output: unknown revision $rev" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

# build <source dir> <side>: the three CLIs and the runnable examples.
build() {
  local src="$1" bin="$tmp/$2/bin"
  mkdir -p "$bin"
  (cd "$src" && for c in postcard-figs postcard-sim postcard-solve; do go build -o "$bin/$c" "./cmd/$c"; done)
  for d in "$src"/examples/*/; do
    [ -f "$d/main.go" ] && (cd "$src" && go build -o "$bin/example-$(basename "$d")" "./examples/$(basename "$d")")
  done
  return 0
}
echo "same_output: building $rev and the working tree" >&2
build "$tmp/base" base
build "$PWD" work

schedulers=$("$tmp/work/bin/postcard-solve" -scheduler help | awk 'NR > 1 { print $1 }')
all=$(echo "$schedulers" | paste -sd, -)
relay="$PWD/cmd/postcard-solve/testdata/relay.json"
sim_scheduler=postcard-path

# run <side> <name> <command...>: record output and exit status.
run() {
  local side="$1" name="$2"; shift 2
  local out="$tmp/$side/out/$name" rc=0
  mkdir -p "$(dirname "$out")"
  "$@" >"$out" 2>&1 || rc=$?
  echo "exit status $rc" >>"$out"
}

for side in base work; do
  echo "same_output: running the $side build" >&2
  bin="$tmp/$side/bin"
  for n in 4 5 6 7; do
    mkdir -p "$tmp/$side/out/csv-fig$n"
    run "$side" "figs-$n" "$bin/postcard-figs" -fig "$n" -q -schedulers "$all" -csv "$tmp/$side/out/csv-fig$n"
  done
  run "$side" figs-dc64 "$bin/postcard-figs" -fig 4 -dcs 64 -runs 1 -slots 6 -q \
    -schedulers postcard,postcard-warm,postcard-path
  run "$side" sim-dc24 "$bin/postcard-sim" -dcs 24 -maxt 3 -slots 16 -scheduler "$sim_scheduler"
  for s in $schedulers; do
    run "$side" "solve-builtin-$s" "$bin/postcard-solve" -scheduler "$s"
    run "$side" "solve-builtin-$s.json" "$bin/postcard-solve" -scheduler "$s" -json
    run "$side" "solve-relay-$s" "$bin/postcard-solve" -scheduler "$s" -input "$relay"
    run "$side" "solve-relay-$s.json" "$bin/postcard-solve" -scheduler "$s" -input "$relay" -json
  done
  for ex in "$bin"/example-*; do
    (cd "$tmp/base" && run "$side" "$(basename "$ex")" "$ex")
  done
  # Mask Go durations (one or more number+unit groups standing alone)
  # with the padding around them, which follows their width, and this
  # side's output directory, which -csv echoes.
  find "$tmp/$side/out" -type f -exec sed -E -i \
    -e 's/[[:space:]]*\b([0-9]+(\.[0-9]+)?(ns|us|µs|ms|h|m|s))+\b[[:space:]]*/ <dur> /g' \
    -e "s|$tmp/$side/out/||g" {} +
done

# The moved-output report, after which the names it covers leave both sides.
for name in ${moved[@]+"${moved[@]}"}; do
  case "$name" in
  example-*)
    echo "same_output: moved: $name" >&2
    diff -u "$tmp/base/out/$name" "$tmp/work/out/$name" >&2 || true
    rm -f "$tmp/base/out/$name" "$tmp/work/out/$name"
    continue
    ;;
  esac
  for n in 4 5 6 7 dc64; do
    awk -v name="$name" -v fig="$n" '
      FNR == 1 { side++ }
      FNR > 2 && NF == 0 { nextfile }
      FNR > 2 && $1 == name { cost[side] = $2; drop[side] = $4 }
      END {
        if (cost[1] == "" && cost[2] == "") exit
        rel = cost[1] != 0 ? sprintf("%+.3f%%", 100 * (cost[2] - cost[1]) / cost[1]) : "n/a"
        printf "fig %s  %-16s cost %s -> %s (%s)  dropped %s -> %s\n", fig, name, cost[1], cost[2], rel, drop[1], drop[2]
      }' "$tmp/base/out/figs-$n" "$tmp/work/out/figs-$n" >&2
  done
  if [ "$name" = "$sim_scheduler" ]; then
    awk -v name="$name" '
      FNR == 1 { side++ }
      $1 == "final" && $2 == "cost/slot:" { cost[side] = $3 }
      $1 == "files" && $2 == "dropped:" { drop[side] = $3 }
      END {
        rel = cost[1] != 0 ? sprintf("%+.3f%%", 100 * (cost[2] - cost[1]) / cost[1]) : "n/a"
        printf "sim-dc24 %-16s cost %s -> %s (%s)  dropped %s -> %s\n", name, cost[1], cost[2], rel, drop[1], drop[2]
      }' "$tmp/base/out/sim-dc24" "$tmp/work/out/sim-dc24" >&2
    rm -f "$tmp/base/out/sim-dc24" "$tmp/work/out/sim-dc24"
  fi
  for side in base work; do
    find "$tmp/$side/out" -maxdepth 1 -name "figs-*" -exec sed -i -E "/^$name[[:space:]]/d" {} +
    for csv in "$tmp/$side/out"/csv-fig*/*.csv; do
      awk -F, -v OFS=, -v name="$name" '
        FNR == 1 { for (i = 1; i <= NF; i++) if ($i == name) skip = i }
        { out = ""; for (i = 1; i <= NF; i++) if (i != skip) out = out (out == "" ? "" : OFS) $i; print out }
      ' "$csv" >"$csv.tmp" && mv "$csv.tmp" "$csv"
    done
    rm -f "$tmp/$side/out/solve-builtin-$name" "$tmp/$side/out/solve-builtin-$name.json" \
      "$tmp/$side/out/solve-relay-$name" "$tmp/$side/out/solve-relay-$name.json"
  done
done

if diff -ru "$tmp/base/out" "$tmp/work/out"; then
  echo "same_output: identical to $rev apart from durations" >&2
else
  echo "same_output: FAIL: output differs from $rev" >&2
  exit 1
fi
