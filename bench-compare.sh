#!/bin/sh
# bench-compare.sh — the paired same-host benchmark gate. Run it from a
# checkout with git, go and jq:
#
#   ./bench-compare.sh BASE_REF
#
# It runs the repository benchmark (bash benchmark/run.sh: every workload,
# seed 1, BENCHMARK.json's run_seconds per workload) on BASE_REF and on the
# working tree, in 5 pairs on this host, alternating which side goes first.
# The base runs in a temporary git worktree with the head's benchmark/
# copied over its own, so both sides run the same benchmark code; if that
# build fails, the first base run stops the script with the build error.
#
# For every workload x end-to-end metric of BENCHMARK.json it prints the
# base and head medians, the base's quartile spread (exclusive method, as
# benchmark/stats.go, over the base median), the head/base ratio and the
# pairs the head won. A row fails when the head median is worse than the
# base median by more than the metric's bound, in the direction its
# "better" names. A row whose base spread exceeds the bound is marked
# unresolved and does not fail.
#
# Exits non-zero, naming the reason, when a run's "# host:" line differs
# from the first run's, when a run reports correct: false, when the head's
# share of failed runs exceeds the base's, or when a row fails. The worktree
# is removed on every exit path.
set -eu

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE_REF" >&2
	exit 2
fi
cd "$(dirname "$0")"
if ! base=$(git rev-parse --verify --quiet "$1^{commit}"); then
	echo "bench-compare: $1 is not a commit" >&2
	exit 2
fi
pairs=5
seconds=$(jq -r .run_seconds BENCHMARK.json)

tmp=$(mktemp -d)
wt="$tmp/base"
trap 'git worktree remove --force "$wt" 2>/dev/null || true
	chmod -R u+w "$tmp" 2>/dev/null || true
	rm -rf "$tmp"
	git worktree prune' EXIT
trap 'exit 130' HUP INT TERM

git worktree add --quiet --detach "$wt" "$base"
rm -rf "$wt/benchmark"
cp -R benchmark "$wt/benchmark"

# run SIDE DIR PAIR runs the benchmark once in DIR and appends its final
# JSON line to $tmp/SIDE.jsonl.
run() {
	echo "bench-compare: pair $3 of $pairs, $1" >&2
	if ! (cd "$2" && bash benchmark/run.sh --seed 1 --seconds "$seconds" --record "") >"$tmp/out"; then
		echo "bench-compare: the $1 run of pair $3 failed" >&2
		exit 1
	fi
	host=$(grep '^# host:' "$tmp/out")
	if [ ! -f "$tmp/host" ]; then
		printf '%s\n' "$host" >"$tmp/host"
	elif [ "$host" != "$(cat "$tmp/host")" ]; then
		echo "bench-compare: the host changed between runs:" >&2
		cat "$tmp/host" >&2
		printf '%s\n' "$host" >&2
		exit 1
	fi
	tail -n 1 "$tmp/out" >>"$tmp/$1.jsonl"
	if [ "$(tail -n 1 "$tmp/out" | jq .correct)" != true ]; then
		echo "bench-compare: the $1 run of pair $3 reports correct: false" >&2
		grep '^# ' "$tmp/out" >&2
		exit 1
	fi
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$wt" "$i"
		run head . "$i"
	else
		run head . "$i"
		run base "$wt" "$i"
	fi
	i=$((i + 1))
done

# One tab-separated row per workload x end-to-end metric: workload, metric,
# base median, base spread, head median, head/base, head wins, bound,
# verdict.
jq -n -r --slurpfile cfg BENCHMARK.json \
	--slurpfile base "$tmp/base.jsonl" --slurpfile head "$tmp/head.jsonl" '
def median: sort | length as $n
	| if $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
def quartile($k): sort | length as $n | ($k * ($n + 1)) as $km
	| ([([($km / 4 | floor), 1] | max), $n - 1] | min) as $j
	| .[$j - 1] + (.[$j] - .[$j - 1]) * ($km - $j * 4) / 4;
$cfg[0] as $c | $c.workloads[].name as $w | $c.end_to_end[] as $e
| "\($w)/\($e.name)" as $key
| [$base[].metrics[$key].value] as $b | [$head[].metrics[$key].value] as $h
| ($b | median) as $bm | ($h | median) as $hm
| ((($b | quartile(3)) - ($b | quartile(1))) / $bm) as $spread
| (if $e.better == "higher" then 1 - $hm / $bm else $hm / $bm - 1 end) as $worse
| ([range($b | length) | select(if $e.better == "higher" then $h[.] > $b[.] else $h[.] < $b[.] end)] | length) as $wins
| [$w, $e.name, $bm, $spread, $hm, $hm / $bm, "\($wins)/\($b | length)", $e.bound,
	(if $spread > $e.bound then "unresolved" elif $worse > $e.bound then "FAIL" else "ok" end)]
| @tsv' >"$tmp/rows"

head_failed=$(jq -s '(map(.failed) | add) / (map(.attempted) | add)' "$tmp/head.jsonl")
base_failed=$(jq -s '(map(.failed) | add) / (map(.attempted) | add)' "$tmp/base.jsonl")

echo "bench-compare: head $(git describe --always --dirty) against base $(git rev-parse --short "$base"), $pairs pairs, ${seconds}s per workload"
cat "$tmp/host"
awk -F '\t' -v failed="$head_failed" -v basefailed="$base_failed" '
BEGIN {
	printf "%-12s %-19s %12s %8s %12s %10s %6s %6s  %s\n",
		"workload", "metric", "base median", "spread", "head median", "head/base", "wins", "bound", "verdict"
}
{
	printf "%-12s %-19s %12.4g %7.1f%% %12.4g %10.3f %6s %5.0f%%  %s\n",
		$1, $2, $3, 100 * $4, $5, $6, $7, 100 * $8, $9
	if ($9 == "FAIL") bad = bad " " $1 "/" $2
	if ($9 == "unresolved") unresolved = unresolved " " $1 "/" $2
}
END {
	if (unresolved != "") print "bench-compare: unresolved (base spread above the bound):" unresolved
	status = 0
	if (failed > basefailed) {
		print "bench-compare: FAIL: the head failed a share " failed " of its runs, the base " basefailed
		status = 1
	}
	if (bad != "") {
		print "bench-compare: FAIL: head worse than base by more than the bound:" bad
		status = 1
	}
	if (status == 0) print "bench-compare: ok"
	exit status
}' "$tmp/rows"
