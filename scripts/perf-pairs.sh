#!/usr/bin/env bash
# perf-pairs.sh — the standing measurement rule (ROADMAP "Standing rules") as
# one command: N alternating parent/change pairs of one benchmark workload,
# every run printed, then median [quartiles], the change of the median and the
# pairs the change won for every end-to-end metric BENCHMARK.json declares.
#
#   scripts/perf-pairs.sh PARENT WORKLOAD [N] [SEED]     (make perf-pairs ...)
#
# PARENT is any git revision; the change is the working tree. Each side's
# ./benchmark is built once, from its own source, and run from its own
# directory (the goldens it verifies replies against are its own); runs are
# untraced (-trace 0), the kind the end-to-end metrics are defined on. The
# parent is a `git archive` export, so nothing is registered in .git. A gain
# is claimed when the change wins at least nine tenths of the pairs and the
# medians differ by more than the parent's own quartile spread; a metric whose
# parent spread exceeds its bound is unresolved, not unchanged.
set -euo pipefail

parent=${1:?usage: perf-pairs.sh PARENT WORKLOAD [N] [SEED]}
workload=${2:?usage: perf-pairs.sh PARENT WORKLOAD [N] [SEED]}
pairs=${3:-10}
seed=${4:-20260925}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent" "$work/out"
git -C "$root" archive "$parent" | tar -x -C "$work/parent"
(cd "$work/parent" && go build -o "$work/bench-parent" ./benchmark)
(cd "$root" && go build -o "$work/bench-change" ./benchmark)

# run SIDE DIR: one untraced run; appends "side metric value" lines to runs.
run() {
	local side=$1 dir=$2 log="$work/out/$1.log"
	(cd "$dir" && "$work/bench-$side" -workload "$workload" -seed "$seed" -trace 0 -outdir "$work/out") >"$log" 2>&1 ||
		{ cat "$log" >&2; echo "perf-pairs: $side run failed" >&2; exit 1; }
	grep -q '"correct":true' "$log" || { cat "$log" >&2; echo "perf-pairs: $side run not verified correct" >&2; exit 1; }
	awk -v side="$side" -v w="$workload" '$1 == w && NF == 4 { print side, $2, $3 }' "$log" >>"$work/runs"
	awk -v side="$side" -v w="$workload" '$1 == w && NF == 4 { printf " %s=%s", $2, $3 } END { print "" }' "$log" |
		sed "s/^/$side:/"
}

echo "# $workload seed=$seed parent=$(git -C "$root" rev-parse --short "$parent") pairs=$pairs"
for ((i = 0; i < pairs; i++)); do
	echo "pair $((i + 1))"
	if ((i % 2 == 0)); then
		run parent "$work/parent"; run change "$root"
	else
		run change "$root"; run parent "$work/parent"
	fi
done

# The end-to-end metrics and which way is better, from BENCHMARK.json.
awk '/"per_layer"/ { exit } /"end_to_end"/ { on = 1 } on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name, $2 }' "$root/BENCHMARK.json" >"$work/metrics"

echo
echo "| workload | metric | parent | change | Δ median | change better in |"
echo "|---|---|---|---|---|---|"
awk -v w="$workload" '
	function quantile(v, n, q,    pos, lo) { pos = (n - 1) * q + 1; lo = int(pos); return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) }
	function summary(side, m,    n, i, j, t, v) {
		n = count[side, m]
		for (i = 1; i <= n; i++) v[i] = val[side, m, i]
		for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		med[side] = quantile(v, n, 0.5)
		return sprintf("%.4g [%.4g, %.4g]", med[side], quantile(v, n, 0.25), quantile(v, n, 0.75))
	}
	FNR == NR { order[++metrics] = $1; better[$1] = $2; next }
	{ val[$1, $2, ++count[$1, $2]] = $3 }
	END {
		for (k = 1; k <= metrics; k++) {
			m = order[k]; n = count["parent", m]; won = 0
			for (i = 1; i <= n; i++) {
				d = val["change", m, i] - val["parent", m, i]
				if ((better[m] == "lower" && d < 0) || (better[m] == "higher" && d > 0)) won++
			}
			p = summary("parent", m); c = summary("change", m)
			delta = med["parent"] == 0 ? 0 : 100 * (med["change"] - med["parent"]) / med["parent"]
			printf "| `%s` | `%s` | %s | %s | %+.2f %% | %d/%d |\n", w, m, p, c, delta, won, n
		}
	}' "$work/metrics" "$work/runs"
