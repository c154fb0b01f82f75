#!/usr/bin/env bash
# Diff a `repro run` export between the working tree and a base ref.
#
#   tools/export_diff.sh BASE_REF -- <repro run args>
#
# Runs `python -m repro run <args> --export-json FILE` twice: on the
# working tree, and on a temporary `git worktree` of BASE_REF.  Then it
# diffs the two exports.  Do not pass --export-json yourself.
#
# Exit status: 0 when the exports are identical, or when HEAD is already
# on BASE_REF (there is nothing older to compare against); 1 when they
# differ; 2 on a usage error.  A failing run (e.g. a strict-audit
# violation) exits with that run's status.
#
# The base worktree is created under $TMPDIR and removed on exit.
set -euo pipefail

usage() {
    echo "usage: $0 BASE_REF -- <repro run args>" >&2
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

PYTHONPATH="$root/src" python -m repro run "$@" \
    --export-json "$work/head.json"
PYTHONPATH="$work/base/src" python -m repro run "$@" \
    --export-json "$work/base.json"
if diff "$work/base.json" "$work/head.json"; then
    echo "export_diff: identical to $base_ref: repro run $*"
else
    echo "export_diff: differs from $base_ref: repro run $*" >&2
    exit 1
fi
