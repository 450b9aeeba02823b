#!/usr/bin/env bash
# Regenerates the golden output digests checked by the `golden` ctest label.
#
#   tests/golden/regen.sh [BUILD_DIR]     (default: build)
#
# Runs each golden bench from BUILD_DIR, prints the unified diff of its
# stdout against the committed reference tables (<name>.txt), then rewrites
# <name>.txt and <name>.sha256. A digest change is a change in results:
# review the printed table diff before committing it.
set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
BUILD="${1:-build}"

# name|arguments — keep in step with the golden tests in tests/CMakeLists.txt.
GOLDEN=(
  "bench_table3|--quick"
  "bench_table8|--quick"
  "bench_fig9|--quick"
)

for entry in "${GOLDEN[@]}"; do
  name="${entry%%|*}"
  args="${entry#*|}"
  new="$(mktemp)"
  # shellcheck disable=SC2086  # args is a word list
  "$BUILD/bench/$name" $args > "$new"
  if diff -u --label "$name.txt (committed)" --label "$name (now)" \
      "$HERE/$name.txt" "$new"; then
    echo "$name: unchanged"
  fi
  mv "$new" "$HERE/$name.txt"
  sha256sum < "$HERE/$name.txt" | cut -d' ' -f1 > "$HERE/$name.sha256"
done
