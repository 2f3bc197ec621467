#!/usr/bin/env bash
# Same-runner A/B of the repository benchmark between two revisions:
#
#   bash .github/bench-ab.sh BASE HEAD
#
# BASE and HEAD are git revisions; an empty BASE runs HEAD alone, and then
# only the correctness checks apply. Each revision is checked out with
# `git worktree` into a temporary directory and runs its own
# perfbench/run.sh with its own build cache. For each workload in HEAD's
# BENCHMARK.json the script runs 5 pairs of 10 s end-to-end runs
# (--trace 0; pair i runs seed i on both sides, and the side that goes
# first alternates), then one --trace 1 pair whose per-layer deltas name
# the layer a change moved.
#
# It exits 1 as soon as a run exits non-zero or prints "correct": false.
# After all runs it exits 1 if an end-to-end metric regressed: the change's
# median is worse than the parent's by more than the metric's bound in
# BENCHMARK.json. When the parent's own spread (interquartile range over
# median) is wider than the bound, the metric is reported as unresolved
# instead, unless every run of the change reads better than every run of
# the parent.
#
# Every run's record (perfbench --out) goes to bench-ab/ under the current
# directory. The report is printed and, under GitHub Actions, added to the
# job summary.
set -euo pipefail

pairs=5
seconds=10

base=${1-}
head=${2:?usage: bench-ab.sh BASE HEAD (an empty BASE runs HEAD alone)}
repo=$(git rev-parse --show-toplevel)
out=$PWD/bench-ab
rm -rf "$out"
mkdir -p "$out"
report=$out/report.md
tmp=$(mktemp -d)

cleanup() {
	for side in base head; do
		if [ -d "$tmp/$side" ]; then
			git -C "$repo" worktree remove --force "$tmp/$side"
		fi
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

if [ -n "$base" ]; then
	git -C "$repo" worktree add --quiet --detach "$tmp/base" "$base"
fi
git -C "$repo" worktree add --quiet --detach "$tmp/head" "$head"

publish() {
	cat "$report"
	if [ -n "${GITHUB_STEP_SUMMARY-}" ]; then
		cat "$report" >>"$GITHUB_STEP_SUMMARY"
	fi
}

# bench SIDE LOG ARGS... runs SIDE's benchmark with ARGS, stdout to LOG.
# A run that exits non-zero or whose result line is not correct ends the
# A/B: its numbers would compare a broken simulator.
bench() {
	local side=$1 log=$2 rc=0
	shift 2
	echo "$side: perfbench $*" >&2
	CARGO_TARGET_DIR="$tmp/build-$side" bash "$tmp/$side/perfbench/run.sh" "$@" >"$log" 2>"$log.err" || rc=$?
	if [ "$rc" -ne 0 ] || ! tail -n 1 "$log" | jq -e '.correct == true' >/dev/null 2>&1; then
		{
			echo "## Benchmark A/B: $side run failed (exit $rc)"
			echo
			echo "\`perfbench $*\`"
			echo
			echo '```'
			tail -n 30 "$log" "$log.err"
			echo '```'
		} >"$report"
		publish
		exit 1
	fi
}

mapfile -t workloads < <(jq -r '.workloads[].name' "$tmp/head/BENCHMARK.json")

for w in "${workloads[@]}"; do
	# A workload new in HEAD has no parent to compare with.
	run_sides=(head)
	if [ -n "$base" ] && jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' \
		"$tmp/base/BENCHMARK.json" >/dev/null; then
		run_sides=(base head)
	fi
	for ((i = 1; i <= pairs; i++)); do
		order=("${run_sides[@]}")
		if ((i % 2 == 0)) && ((${#order[@]} == 2)); then
			order=(head base)
		fi
		for side in "${order[@]}"; do
			bench "$side" "$out/$w-$i-$side.log" --workload "$w" --seed "$i" \
				--seconds "$seconds" --trace 0 --out "$out/$side.jsonl"
		done
	done
	if ((${#run_sides[@]} == 2)); then
		bench base "$out/$w-layers-base.log" --workload "$w" --seconds "$seconds" \
			--trace 1 --out "$out/base-layers.jsonl"
		bench head "$out/$w-layers-head.log" --workload "$w" --seconds "$seconds" \
			--trace 1 --out "$out/head-layers.jsonl" --compare "$out/base-layers.jsonl"
	else
		bench head "$out/$w-layers-head.log" --workload "$w" --seconds "$seconds" \
			--trace 1 --out "$out/head-layers.jsonl"
	fi
done

status=0
python3 - "$tmp/head/BENCHMARK.json" "$out/base.jsonl" "$out/head.jsonl" "$pairs" >"$report" <<'EOF' || status=$?
import json, os, statistics, sys

bench_path, base_path, head_path, pairs = sys.argv[1:]
bench = json.load(open(bench_path))


def load(path):
    """Runs by workload, then by seed."""
    runs = {}
    if os.path.exists(path):
        for line in open(path):
            r = json.loads(line)
            runs.setdefault(r["workload"], {})[r["seed"]] = r["metrics"]
    return runs


base, head = load(base_path), load(head_path)


def fmt(v):
    return f"{v:.4g}"


print(f"## Benchmark A/B ({pairs} pairs per workload)")
print()
print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change | wins | verdict |")
print("|---|---|---|---|---:|---:|---|")
regressed = False
for w in (x["name"] for x in bench["workloads"]):
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        h = {s: r[name]["value"] for s, r in head.get(w, {}).items()}
        b = {s: r[name]["value"] for s, r in base.get(w, {}).items() if name in r}
        hq = statistics.quantiles(h.values(), n=4)
        hcell = f"{fmt(hq[1])} [{fmt(hq[0])}, {fmt(hq[2])}]"
        if not b:
            print(f"| {w} | {name} | — | {hcell} | | | no parent |")
            continue
        bq = statistics.quantiles(b.values(), n=4)
        change = (hq[1] - bq[1]) / bq[1]
        worse = change if lower else -change
        spread = (bq[2] - bq[0]) / bq[1]
        wins = sum(1 for s in h if s in b and (h[s] < b[s] if lower else h[s] > b[s]))
        all_better = max(h.values()) < min(b.values()) if lower else min(h.values()) > max(b.values())
        if spread > bound:
            verdict = "better" if all_better else f"unresolved: parent spread {spread:.0%} > bound {bound:.0%}"
        elif worse > bound:
            verdict = f"**REGRESSION**: worse by more than {bound:.0%}"
            regressed = True
        else:
            verdict = "ok"
        print(f"| {w} | {name} | {fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}] | {hcell} "
              f"| {change:+.1%} | {wins}/{len(h)} | {verdict} |")
sys.exit(1 if regressed else 0)
EOF

# Per-layer deltas: the --compare section of each change-side trace run.
for w in "${workloads[@]}"; do
	if [ -f "$out/$w-layers-base.log" ]; then
		{
			echo
			echo "<details><summary>$w: per-layer deltas, parent → change (one --trace 1 pair)</summary>"
			echo
			echo '```'
			awk '/^compare with/ { on = 1 } /^\{/ { on = 0 } on' "$out/$w-layers-head.log"
			echo '```'
			echo '</details>'
		} >>"$report"
	fi
done
publish
exit "$status"
