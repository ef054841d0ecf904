// Checkpointed parameter sweeps: a sweep journals each finished row so
// `csq_cli sweep --checkpoint=FILE` survives SIGKILL and resumes to
// byte-identical SweepRows (docs/serving.md §9, robustness §11).
//
// File format: a durable::Journal (journal.h), so framing, CRCs, torn-tail
// handling and fsync batching are the request journal's own.
//
//   req frame, seq 0   the canonical sweep identity (axis, fixed parameters
//                      as exact double bit patterns, point count, grid CRC).
//                      Resuming with a different identity — or a file whose
//                      first frame is not an identity — throws
//                      csq::InvalidInputError: a checkpoint must never
//                      silently graft rows from one sweep onto another.
//   res frame, seq i   grid point i's final row: the 7 doubles (x + 6
//                      columns) as %016llx bit patterns, so NaN patterns
//                      survive, then the 3 status digits, space-separated.
//
// Rows are appended from the pool workers as they finish, in completion
// order; a duplicate seq keeps its first frame, as in recover(). A torn tail
// (the crash artifact) is trimmed before the first append, exactly as
// `csq_serve --recover` does. A CRC-valid row frame that is malformed (seq
// outside the grid, bad hex, wrong field count, a status that is no
// PointStatus or is kTimedOut, an x off the grid) and mid-file corruption
// throw csq::CorruptJournalError. A file in the retired binary snapshot
// format holds no journal frame, so it replays as a torn tail and the sweep
// starts fresh.
//
// Done semantics: a row is journaled only when *no* policy status is
// kTimedOut. Timed-out points are budget artifacts, not results; resuming
// re-evaluates them, which is what makes an interrupted run converge to the
// uninterrupted bytes.
//
// Throws csq::InvalidInputError (empty or unopenable path, identity
// mismatch), csq::CorruptJournalError (see above), csq::InternalError
// (write/fsync failures while appending), and from the underlying sweep
// csq::DeadlineExceededError / csq::CancelledError when an ambient budget
// interrupts it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/sweep.h"

namespace csq::durable {

struct CheckpointedSweepResult {
  std::vector<SweepRow> rows;
  std::size_t resumed = 0;     // rows taken as-is from the checkpoint
  std::size_t evaluated = 0;   // rows computed this run
  std::size_t incomplete = 0;  // rows still timed out (budget expired again)
};

// sweep_rho_short / sweep_rho_long with checkpointing layered on: replay
// `path` (validating the sweep identity), skip journaled rows, evaluate the
// rest and journal each final one as it finishes. Output rows are
// byte-identical to the plain sweep functions for any interruption history.
// opts' resume hooks are the checkpoint's own and are overwritten.
[[nodiscard]] CheckpointedSweepResult checkpointed_sweep_rho_short(
    const std::string& path, double rho_long, double mean_short, double mean_long,
    double long_scv, const std::vector<double>& rho_shorts, const SweepOptions& opts = {});

[[nodiscard]] CheckpointedSweepResult checkpointed_sweep_rho_long(
    const std::string& path, double rho_short, double mean_short, double mean_long,
    double long_scv, const std::vector<double>& rho_longs, const SweepOptions& opts = {});

}  // namespace csq::durable
