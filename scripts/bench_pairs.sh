#!/usr/bin/env bash
# Interleaved parent/change pairs of the round-loop benchmark — the procedure
# ROADMAP's "Open items" preamble and the choosing-metrics guide (§8) require
# of every performance claim:
#
#   scripts/bench_pairs.sh <parent-rev> [workloads] [pairs] [seeds] [seconds]
#   make bench-pairs PARENT=<rev> [W=<workload>] [N=10] [SEEDS="1 2 …"] [SECONDS=30]
#
# The parent revision is exported (git archive) into .bench_build/pairs/parent
# and each side is measured with its own benchmark/run.sh, so both run the
# benchmark code of their own commit, built from their own source. Pair i runs
# one seed on both sides, the parent first when i is even and the change first
# when it is odd. Then `-compare parent.json change.json` gives the verdict
# per cell against the recorded bounds, and the table after it, per workload
# and end-to-end metric, how many pairs the change won, lost and tied and
# each side's median and quartiles (a claim needs wins on nine pairs in ten
# and medians further apart than the parent's own quartiles).
set -euo pipefail

parent=${1:?usage: bench_pairs.sh <parent-rev> [workloads] [pairs] [seeds] [seconds]}
workloads=${2:-"steady_quiet failure_churn cold_solve pop_cold"}
pairs=${3:-10}
seeds=(${4:-$(seq 1 "$pairs")})
seconds=${5:-30}

root=$(git rev-parse --show-toplevel)
out=$root/.bench_build/pairs
rm -rf "$out"
mkdir -p "$out/parent"
git -C "$root" archive "$parent" | tar -x -C "$out/parent"

run() { # side checkout workload seed
	bash "$2/benchmark/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 \
		--json "$out/$1.json" >>"$out/$1.log"
}
for w in $workloads; do
	for ((i = 0; i < pairs; i++)); do
		seed=${seeds[i % ${#seeds[@]}]}
		if ((i % 2 == 0)); then
			run parent "$out/parent" "$w" "$seed"
			run change "$root" "$w" "$seed"
		else
			run change "$root" "$w" "$seed"
			run parent "$out/parent" "$w" "$seed"
		fi
		echo "pair $((i + 1))/$pairs of $w (seed $seed) done" >&2
	done
done

"$root/.bench_build/rasbench" -compare "$out/parent.json" "$out/change.json" || true
echo
# A lower value wins on all four end-to-end metrics (BENCHMARK.json).
awk -v files="$out/parent.json $out/change.json" '
function value(line, metric,    at, s) {
	at = index(line, "\"" metric "\":{\"value\":")
	if (!at) return "nan"
	s = substr(line, at + length(metric) + 12)
	sub(/[,}].*/, "", s)
	return s + 0
}
function field(line, name,    s) {
	s = substr(line, index(line, "\"" name "\":") + length(name) + 3)
	sub(/[,}].*/, "", s)
	gsub(/"/, "", s)
	return s
}
# quartile q of v[1..n], as Python statistics.quantiles(v, n=4) gives it.
function quartile(v, n, q,    m, j, d) {
	if (n < 2) return v[1]
	m = n + 1
	j = int(q * m / 4)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	d = q * m - j * 4
	return (v[j] * (4 - d) + v[j + 1] * d) / 4
}
function summary(side, w, m, n,    v, i, j, t) {
	for (i = 1; i <= n; i++) v[i] = val[side, w, m, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j] < v[j - 1]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return sprintf("%10.5g [%.5g–%.5g]", quartile(v, n, 2), quartile(v, n, 1), quartile(v, n, 3))
}
BEGIN {
	split(files, file, " ")
	nm = split("setup_s round_ms_p50 objective_p50 alloc_mb_p50", metrics, " ")
	for (side = 1; side <= 2; side++)
		while ((getline line < file[side]) > 0) {
			w = field(line, "workload")
			if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
			k = ++count[side, w]
			for (i = 1; i <= nm; i++) val[side, w, metrics[i], k] = value(line, metrics[i])
		}
	printf "%-14s %-14s %5s %5s %5s   %-32s %s\n", "workload", "metric", "wins", "loss", "ties", "parent median [q1–q3]", "change median [q1–q3]"
	for (x = 1; x <= nw; x++) {
		w = order[x]
		n = count[1, w] < count[2, w] ? count[1, w] : count[2, w]
		for (i = 1; i <= nm; i++) {
			m = metrics[i]; wins = loss = ties = 0
			for (k = 1; k <= n; k++) {
				if (val[2, w, m, k] < val[1, w, m, k]) wins++
				else if (val[2, w, m, k] > val[1, w, m, k]) loss++
				else ties++
			}
			printf "%-14s %-14s %5d %5d %5d   %-32s %s\n", w, m, wins, loss, ties, summary(1, w, m, n), summary(2, w, m, n)
		}
	}
}'
echo "runs: $out/parent.json $out/change.json (logs beside them)"
