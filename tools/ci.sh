#!/usr/bin/env sh
# One-shot local CI: dev build + fast test tiers, then the staged
# strict-build matrix (tools/check_warnings.sh: Werror -> ASan/UBSan ->
# TSan -> chaos -> serve -> durable -> obs -> bench -> clang-tidy (if
# installed) -> csq_lint, a single text scan that must come back clean).
#
# Set CSQ_CI_FULL=1 to also run the slow suite (truncated-chain
# cross-checks, million-completion simulations) in the dev build.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" -j
(cd "$build_dir" && ctest -L 'tier1|lint|parallel' --output-on-failure)
if [ "${CSQ_CI_FULL:-0}" = "1" ]; then
  (cd "$build_dir" && ctest -L slow --output-on-failure)
fi

exec "$repo_root/tools/check_warnings.sh"
