#!/usr/bin/env bash
# Same decisions, parent against change: the check a refactor that claims to
# change no decision has to pass.
#
#   scripts/same_decisions.sh <parent-rev> [seeds]
#   make same-decisions PARENT=<rev> [SEEDS="1 7"]
#
# The parent revision is exported (git archive) into .bench_build/same/parent,
# as scripts/bench_pairs.sh does, and each side runs one traced episode of
# every workload per seed with its own benchmark/run.sh (--seconds 0 --trace 1).
# A traced episode repeats exactly at a fixed seed, so every per-layer metric
# of unit count, ratio or cost — the exact counts and the mean objective —
# must read the same on both sides. The script prints one line per workload
# and seed, names every such metric that differs (or that only one side
# reports), and exits 1 when any does.
set -euo pipefail

parent=${1:?usage: same_decisions.sh <parent-rev> [seeds]}
seeds=${2:-"1 7"}
workloads="steady_quiet failure_churn cold_solve pop_cold"

root=$(git rev-parse --show-toplevel)
out=$root/.bench_build/same
rm -rf "$out"
mkdir -p "$out/parent"
git -C "$root" archive "$parent" | tar -x -C "$out/parent"

exact() { # checkout workload seed: "name value" per exact metric
	bash "$1/benchmark/run.sh" --workload "$2" --seed "$3" --seconds 0 --trace 1 |
		awk '$3 == "count" || $3 == "ratio" || $3 == "cost" { print $1, $2 }'
}
differ=0
for w in $workloads; do
	for seed in $seeds; do
		exact "$out/parent" "$w" "$seed" >"$out/parent-$w-$seed.txt"
		exact "$root" "$w" "$seed" >"$out/change-$w-$seed.txt"
		if ! awk -v label="$w seed $seed" '
			FILENAME == ARGV[1] { parent[$1] = $2; next }
			{ change[$1] = $2 }
			END {
				for (m in parent) {
					n++
					if (!(m in change)) { diffs = diffs "\n  " m ": parent " parent[m] ", change missing"; bad++ }
					else if (parent[m] != change[m]) { diffs = diffs "\n  " m ": parent " parent[m] ", change " change[m]; bad++ }
				}
				for (m in change) if (!(m in parent)) { diffs = diffs "\n  " m ": parent missing, change " change[m]; bad++ }
				if (n == 0) { print label ": no metrics read"; exit 1 }
				printf "%s: %d exact metrics, %d differ%s\n", label, n, bad, diffs
				exit bad > 0
			}' "$out/parent-$w-$seed.txt" "$out/change-$w-$seed.txt"; then
			differ=1
		fi
	done
done
exit "$differ"
