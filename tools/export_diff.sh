#!/usr/bin/env bash
# Diff a `repro run` export and trace between the working tree and a
# base ref.
#
#   tools/export_diff.sh BASE_REF -- <repro run args>
#
# Runs `python -m repro run <args> --export-json FILE --trace-out TRACE`
# twice: on the working tree, and on a temporary `git worktree` of
# BASE_REF.  Both runs trace to the same path, and each trace is moved
# aside after its run, so the two exports' `trace.path` agree.  Then it
# diffs the two exports, and the two traces with `run_end`'s
# `wall_seconds` dropped: every `round` record (scores, Smart/Stale/Poor
# sets, `n_shared`) is pinned as well as the export.  Do not pass
# --export-json or --trace-out yourself.
#
# Exit status: 0 when the exports and traces are identical, or when HEAD
# is already on BASE_REF (there is nothing older to compare against); 1
# when either differs; 2 on a usage error.  A failing run (e.g. a
# strict-audit violation) exits with that run's status.
#
# The base worktree is created under $TMPDIR and removed on exit.
set -euo pipefail

usage() {
    echo "usage: $0 BASE_REF -- <repro run args, without --export-json or --trace-out>" >&2
    exit 2
}
[ $# -ge 2 ] && [ "$2" = "--" ] || usage
base_ref=$1
shift 2

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$base_ref^{commit}" >/dev/null \
    || { echo "export_diff: unknown ref $base_ref" >&2; exit 2; }
if git -C "$root" merge-base --is-ancestor HEAD "$base_ref"; then
    echo "export_diff: HEAD is on $base_ref; skipping the diff"
    exit 0
fi

work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
    git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$work/base" "$base_ref"

# Print the trace $1 without run_end's wall_seconds, its one host clock.
untimed() {
    python -c '
import json, sys
with open(sys.argv[1], encoding="utf-8") as trace:
    for line in trace:
        record = json.loads(line)
        if record.get("kind") == "run_end":
            record.pop("wall_seconds", None)
            line = json.dumps(record) + "\n"
        sys.stdout.write(line)
' "$1"
}

PYTHONPATH="$root/src" python -m repro run "$@" \
    --export-json "$work/head.json" --trace-out "$work/trace.jsonl"
untimed "$work/trace.jsonl" > "$work/head.jsonl"
rm "$work/trace.jsonl"
PYTHONPATH="$work/base/src" python -m repro run "$@" \
    --export-json "$work/base.json" --trace-out "$work/trace.jsonl"
untimed "$work/trace.jsonl" > "$work/base.jsonl"
if diff "$work/base.json" "$work/head.json" \
    && cmp "$work/base.jsonl" "$work/head.jsonl"; then
    echo "export_diff: export and trace identical to $base_ref: repro run $*"
else
    echo "export_diff: differs from $base_ref: repro run $*" >&2
    exit 1
fi
