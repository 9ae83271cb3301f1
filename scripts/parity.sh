#!/usr/bin/env bash
# Parity check of this tree against the commit REV, with this tree's
# scripts/path_ledger.py on both sides:
#
#     scripts/parity.sh REV
#
# It runs the ledger on the benchmark's pair seeds: sextic_witness seeds
# 1-10 and random_batch seeds 100 and 1-10.  Per run it prints "same" when
# the two plain ledgers are byte-identical, and the --compare verdict
# otherwise.  It exits nonzero when a workload check fails on either side
# or a compare fails.
set -u
rev=${1:?usage: scripts/parity.sh REV}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent" || exit 2
mkdir -p "$tmp/parent/scripts"
cp "$root/scripts/path_ledger.py" "$tmp/parent/scripts/"

status=0
for run in sextic_witness:{1..10} random_batch:{100,{1..10}}; do
    workload=${run%:*} seed=${run#*:}
    for side in parent change; do
        tree=$tmp/parent
        [ "$side" = change ] && tree=$root
        if ! python3 "$tree/scripts/path_ledger.py" --workload "$workload" --seed "$seed" \
                --json "$tmp/$side.json" > "$tmp/$side.txt"; then
            echo "$run: $side ledger failed its workload check"
            status=1
        fi
    done
    if cmp -s "$tmp/parent.txt" "$tmp/change.txt"; then
        echo "$run: same"
    else
        verdict=passes
        python3 "$root/scripts/path_ledger.py" --compare "$tmp/parent.json" \
            "$tmp/change.json" > "$tmp/verdict.txt" || { verdict=fails; status=1; }
        sed "s/^/$run: /" "$tmp/verdict.txt"
        echo "$run: compare $verdict"
    fi
done
exit $status
