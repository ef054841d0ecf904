#!/usr/bin/env sh
# One-shot local CI: dev build + fast test tiers, then the staged
# strict-build matrix (tools/check_warnings.sh: Werror -> ASan/UBSan ->
# TSan -> chaos -> serve -> durable -> obs -> portable -> bench ->
# clang-tidy (if installed) -> csq_lint, a single text scan that must come
# back clean -> perfbench, which builds the benchmark harness).
# The truncated-chain cross-checks solve in milliseconds and run in tier1;
# there is no separate slow suite.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" -j
(cd "$build_dir" && ctest -L 'tier1|lint|parallel' --output-on-failure)

exec "$repo_root/tools/check_warnings.sh"
