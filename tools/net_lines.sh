#!/usr/bin/env bash
# Prints the lines added, deleted and net under src/ and tools/ between the
# git revision BASE and the working tree (untracked, non-ignored files count
# as added). Every change reports this number.
#
# Usage: tools/net_lines.sh BASE
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$1^{commit}" > /dev/null ||
  { echo "$0: unknown revision '$1'" >&2; exit 2; }

read -r added deleted < <(
  {
    git diff --numstat "$1" -- src tools
    git ls-files --others --exclude-standard -z -- src tools |
      xargs -0 -r git diff --no-index --numstat /dev/null 2>/dev/null || true
  } | awk '$1 != "-" { a += $1; d += $2 } END { print a + 0, d + 0 }')

echo "src/ + tools/ vs $1: +${added} -${deleted} net $((added - deleted))"
