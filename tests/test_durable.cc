// The durability layer (src/durable/): CRC-framed write-ahead request
// journal, checkpointed sweeps, and their integration with the serve tier —
// plus kill/restart crash drills against the real csq_serve / csq_cli
// binaries (tools/chaos_crash.sh runs the same drills with SIGKILL timing
// under the CI durable stage).
//
// Suite layout mirrors the ctest labels (tests/durable_labels.cmake):
//   DurableCrc / DurableJournal / DurableSweep /
//   DurableServe    tier1;durable — deterministic, in-process
//   ServeCrash / SweepCrash  durable — fork/exec the installed binaries,
//                   kill them, and assert the recovery contract; assertions
//                   hold for *any* kill timing, so the suite is not flaky,
//                   but it stays off the tier1 gate because it spawns
//                   processes and sleeps.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/deadline.h"
#include "core/faultpoint.h"
#include "core/status.h"
#include "core/sweep.h"
#include "durable/checkpoint.h"
#include "durable/journal.h"
#include "serve/server.h"

namespace csq {
namespace {

using durable::Journal;
using durable::JournalOptions;
using durable::Record;
using durable::RecordKind;
using durable::Recovery;
using durable::ReplayStats;

// --- helpers ---------------------------------------------------------------

// A directory of this process's own under the gtest temp dir, made fresh
// by mkdtemp (so no earlier run's file, left under a recycled pid, can be
// reopened and appended to) and removed with its contents at exit.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    std::string name = ::testing::TempDir() + "csq_durable_XXXXXX";
    if (::mkdtemp(name.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed for " + name + ": " + std::strerror(errno));
    path = std::move(name);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

// Unique scratch path per call, inside the process's ScratchDir; the file
// itself is created by the code under test.
std::string scratch_path(const std::string& tag) {
  static const ScratchDir dir;
  static int counter = 0;
  return dir.path + "/" + std::to_string(counter++) + "_" + tag;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

// "<prefix><i>", appended into a reserved string (GCC 12's Release-only
// -Wrestrict misfires on "literal" + std::to_string(i)).
std::string numbered(const char* prefix, int i) {
  const std::string digits = std::to_string(i);
  std::string s;
  s.reserve(std::char_traits<char>::length(prefix) + digits.size());
  s += prefix;
  s += digits;
  return s;
}

std::string analyze_line(const std::string& id, double rho_s, double rho_l) {
  return "{\"id\":\"" + id + "\",\"op\":\"analyze\",\"rho_s\":" + std::to_string(rho_s) +
         ",\"rho_l\":" + std::to_string(rho_l) + ",\"mean_s\":1,\"mean_l\":1,\"scv_l\":1}";
}

// --- CRC-32 ----------------------------------------------------------------

TEST(DurableCrc, KnownAnswerAndChaining) {
  // The IEEE CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const char kCheck[] = "123456789";
  EXPECT_EQ(durable::crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(durable::crc32("", 0), 0u);
  // Chaining via the seed matches one-shot computation.
  const std::uint32_t head = durable::crc32(kCheck, 4);
  EXPECT_EQ(durable::crc32(kCheck + 4, 5, head), 0xCBF43926u);
  // A single flipped bit changes the sum (the torn-tail detector's whole
  // job).
  char flipped[9];
  std::memcpy(flipped, kCheck, 9);
  flipped[4] ^= 0x01;
  EXPECT_NE(durable::crc32(flipped, 9), 0xCBF43926u);
}

// --- Journal ---------------------------------------------------------------

TEST(DurableJournal, RoundTripAppendReplay) {
  const std::string path = scratch_path("roundtrip.ndjson");
  {
    Journal j = Journal::open(path);
    EXPECT_EQ(j.append_request("{\"id\":\"a\"}"), 1u);
    j.append_response(1, "{\"id\":\"a\",\"ok\":true}");
    EXPECT_EQ(j.append_request("{\"id\":\"b\"}"), 2u);
    j.close();
  }
  ReplayStats stats;
  const std::vector<Record> records = durable::replay(path, &stats);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.max_seq, 2u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(records[0].kind, RecordKind::kRequest);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[0].payload, "{\"id\":\"a\"}");
  EXPECT_EQ(records[1].kind, RecordKind::kResponse);
  EXPECT_EQ(records[1].payload, "{\"id\":\"a\",\"ok\":true}");
  EXPECT_EQ(records[2].seq, 2u);

  const Recovery rec = durable::recover(path);
  ASSERT_EQ(rec.requests.size(), 2u);
  EXPECT_TRUE(rec.requests[0].completed());
  EXPECT_EQ(rec.requests[0].response, "{\"id\":\"a\",\"ok\":true}");
  EXPECT_FALSE(rec.requests[1].completed());
}

TEST(DurableJournal, MissingFileReplaysEmpty) {
  ReplayStats stats;
  EXPECT_TRUE(durable::replay(scratch_path("never_created"), &stats).empty());
  EXPECT_EQ(stats.frames, 0u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_TRUE(durable::recover(scratch_path("never_created_2")).requests.empty());
}

TEST(DurableJournal, TruncatedTailIsDiscardedSilently) {
  const std::string path = scratch_path("torn.ndjson");
  {
    Journal j = Journal::open(path);
    (void)j.append_request("first request line");
    (void)j.append_request("second request line");
    j.close();
  }
  const std::string full = slurp(path);
  // Chop bytes off the end: every cut inside the final frame must replay to
  // exactly the first record plus a torn tail — never an exception.
  for (std::size_t cut = 1; cut < 30; ++cut) {
    spit(path, full.substr(0, full.size() - cut));
    ReplayStats stats;
    std::vector<Record> records;
    ASSERT_NO_THROW(records = durable::replay(path, &stats)) << "cut=" << cut;
    ASSERT_EQ(records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(records[0].payload, "first request line");
    EXPECT_TRUE(stats.torn_tail);
    EXPECT_GT(stats.torn_bytes, 0u);
  }
}

TEST(DurableJournal, FlippedPayloadByteInTailIsTorn) {
  const std::string path = scratch_path("crc_tail.ndjson");
  {
    Journal j = Journal::open(path);
    (void)j.append_request("payload under test");
    j.close();
  }
  std::string bytes = slurp(path);
  bytes[bytes.size() - 5] ^= 0x20;  // flip a payload bit in the final frame
  spit(path, bytes);
  ReplayStats stats;
  EXPECT_TRUE(durable::replay(path, &stats).empty());
  EXPECT_TRUE(stats.torn_tail);
}

TEST(DurableJournal, HugeLengthHeaderCannotWrapTheBoundsCheck) {
  const std::string path = scratch_path("hugelen.ndjson");
  {
    Journal j = Journal::open(path);
    (void)j.append_request("good frame");
    j.close();
  }
  // A corrupt header claiming a near-2^64 payload: the naive truncation
  // check `payload_start + len + 1 > size` wraps to a small number, passes,
  // and downstream indexing runs on garbage offsets. Must decode as a torn
  // tail, never crash.
  spit(path, slurp(path) + "CSQJ1 req 2 18446744073709551610 00000000\njunk\n");
  ReplayStats stats;
  std::vector<Record> records;
  ASSERT_NO_THROW(records = durable::replay(path, &stats));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "good frame");
  EXPECT_TRUE(stats.torn_tail);
}

TEST(DurableJournal, MidFileCorruptionThrows) {
  const std::string path = scratch_path("midfile.ndjson");
  {
    Journal j = Journal::open(path);
    (void)j.append_request("first request line");
    (void)j.append_request("second request line");
    j.close();
  }
  std::string bytes = slurp(path);
  // Corrupt the *first* frame's payload; the intact second frame after it
  // proves this is tampering, not a crash artifact.
  bytes[bytes.find("first") + 1] ^= 0x20;
  spit(path, bytes);
  EXPECT_THROW((void)durable::replay(path), CorruptJournalError);
  EXPECT_THROW((void)durable::recover(path), CorruptJournalError);
}

TEST(DurableJournal, ResponseWithoutRequestIsCorruption) {
  const std::string path = scratch_path("orphan_res.ndjson");
  {
    Journal j = Journal::open(path);
    j.append_record(RecordKind::kResponse, 7, "orphan response");
    j.close();
  }
  EXPECT_THROW((void)durable::recover(path), CorruptJournalError);
}

TEST(DurableJournal, DuplicateRecordsKeepFirstOccurrence) {
  const std::string path = scratch_path("dupes.ndjson");
  {
    Journal j = Journal::open(path);
    j.append_record(RecordKind::kRequest, 1, "original request");
    j.append_record(RecordKind::kRequest, 1, "late duplicate request");
    j.append_record(RecordKind::kResponse, 1, "original response");
    j.append_record(RecordKind::kResponse, 1, "late duplicate response");
    j.close();
  }
  const Recovery rec = durable::recover(path);
  ASSERT_EQ(rec.requests.size(), 1u);
  EXPECT_EQ(rec.requests[0].request, "original request");
  EXPECT_EQ(rec.requests[0].response, "original response");
}

TEST(DurableJournal, FsyncIsBatchedAndFlushedOnClose) {
  const std::string path = scratch_path("fsync.ndjson");
  JournalOptions opts;
  opts.fsync_every = 4;
  Journal j = Journal::open(path, opts);
  for (int i = 0; i < 8; ++i) (void)j.append_request(numbered("r", i));
  EXPECT_EQ(j.fsyncs(), 2);  // two full batches
  (void)j.append_request("tail");
  EXPECT_EQ(j.fsyncs(), 2);  // ninth append sits in the open batch
  j.flush();
  EXPECT_EQ(j.fsyncs(), 3);
  j.flush();                 // nothing pending: no extra fsync
  EXPECT_EQ(j.fsyncs(), 3);
  j.close();
  EXPECT_FALSE(j.is_open());
}

TEST(DurableJournal, RejectsMultiLinePayloadAndBadOptions) {
  const std::string path = scratch_path("reject.ndjson");
  Journal j = Journal::open(path);
  EXPECT_THROW((void)j.append_request("two\nlines"), InvalidInputError);
  EXPECT_THROW((void)Journal::open(""), InvalidInputError);
  JournalOptions bad;
  bad.fsync_every = 0;
  EXPECT_THROW((void)Journal::open(path, bad), InvalidInputError);
}

TEST(DurableJournal, NextSeqContinuesAfterRecovery) {
  const std::string path = scratch_path("reopen.ndjson");
  {
    Journal j = Journal::open(path);
    (void)j.append_request("before crash");
    j.close();
  }
  ReplayStats stats;
  (void)durable::replay(path, &stats);
  JournalOptions opts;
  opts.next_seq = stats.max_seq + 1;
  Journal j = Journal::open(path, opts);
  EXPECT_EQ(j.append_request("after restart"), 2u);
  j.close();
  EXPECT_EQ(durable::recover(path).requests.size(), 2u);
}

TEST(DurableJournal, TornTailIsTrimmedOnReopenSoLaterAppendsStayRecoverable) {
  const std::string path = scratch_path("trim.ndjson");
  {
    Journal j = Journal::open(path);
    (void)j.append_request("survives the crash");
    (void)j.append_request("torn by the crash");
    j.close();
  }
  const std::string full = slurp(path);
  spit(path, full.substr(0, full.size() - 7));  // power-loss tears the last frame

  ReplayStats stats;
  ASSERT_EQ(durable::replay(path, &stats).size(), 1u);
  ASSERT_TRUE(stats.torn_tail);
  // Reopen the way csq_serve --recover does: trim the debris, then append.
  JournalOptions opts;
  opts.next_seq = stats.max_seq + 1;
  opts.trim_tail_bytes = stats.torn_bytes;
  {
    Journal j = Journal::open(path, opts);
    (void)j.append_request("written after recovery");
    j.close();
  }
  // The second recovery must see a clean history — the regression was new
  // frames landing *after* the torn tail, which replay() then refused as
  // mid-file corruption, making one power loss fatal to the journal.
  ReplayStats again;
  std::vector<Record> records;
  ASSERT_NO_THROW(records = durable::replay(path, &again));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, "survives the crash");
  EXPECT_EQ(records[1].payload, "written after recovery");
  EXPECT_FALSE(again.torn_tail);
  // A trim that exceeds the file (the file changed since replay) refuses
  // loudly rather than truncating good history.
  JournalOptions bad = opts;
  bad.trim_tail_bytes = slurp(path).size() + 1;
  EXPECT_THROW((void)Journal::open(path, bad), InvalidInputError);
}

TEST(DurableJournal, FailedAppendWithoutRollbackPoisonsTheJournal) {
  // /dev/full fails every write with ENOSPC and, being a character device,
  // also refuses the ftruncate rollback — the shape where a partial frame
  // could be stranded mid-file. The journal must poison itself: later
  // appends refuse instead of landing after potential debris.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full";
  Journal j = Journal::open("/dev/full");
  EXPECT_THROW((void)j.append_request("doomed"), InternalError);
  try {
    (void)j.append_request("after the failure");
    FAIL() << "poisoned journal accepted an append";
  } catch (const InternalError& e) {
    EXPECT_NE(e.status().message.find("disabled"), std::string::npos)
        << e.status().message;
  }
  j.close();
}

// --- Checkpointed sweeps ---------------------------------------------------

// Bit-level row equality, field by field: double bit patterns (so NaN ==
// NaN) plus exact statuses. Whole-struct memcmp would also compare the tail
// padding, which is indeterminate.
void expect_rows_bit_identical(const std::vector<SweepRow>& got,
                               const std::vector<SweepRow>& want) {
  const auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const SweepRow& g = got[i];
    const SweepRow& w = want[i];
    EXPECT_EQ(bits(g.x), bits(w.x)) << "row " << i;
    EXPECT_EQ(bits(g.dedicated_short), bits(w.dedicated_short)) << "row " << i;
    EXPECT_EQ(bits(g.csid_short), bits(w.csid_short)) << "row " << i;
    EXPECT_EQ(bits(g.cscq_short), bits(w.cscq_short)) << "row " << i;
    EXPECT_EQ(bits(g.dedicated_long), bits(w.dedicated_long)) << "row " << i;
    EXPECT_EQ(bits(g.csid_long), bits(w.csid_long)) << "row " << i;
    EXPECT_EQ(bits(g.cscq_long), bits(w.cscq_long)) << "row " << i;
    EXPECT_EQ(g.dedicated_status, w.dedicated_status) << "row " << i;
    EXPECT_EQ(g.csid_status, w.csid_status) << "row " << i;
    EXPECT_EQ(g.cscq_status, w.cscq_status) << "row " << i;
  }
}

// Runs past the dedicated (rho_S = 1) and CS-CQ (1.5) frontiers, so the
// journaled rows carry NaN columns whose bit patterns must survive.
std::vector<double> small_grid() { return linspace(0.1, 1.6, 6); }

std::vector<SweepRow> plain_rows() { return sweep_rho_short(0.5, 1.0, 1.0, 1.0, small_grid()); }

durable::CheckpointedSweepResult checkpointed(const std::string& path,
                                              const SweepOptions& opts = {}) {
  return durable::checkpointed_sweep_rho_short(path, 0.5, 1.0, 1.0, 1.0, small_grid(), opts);
}

// A finished checkpoint of small_grid(): the identity frame, then one row
// frame per point (in grid order: one thread appends them).
std::vector<Record> finished_checkpoint(const std::string& path) {
  (void)checkpointed(path);
  std::vector<Record> records = durable::replay(path);
  EXPECT_EQ(records.size(), 1 + small_grid().size());
  return records;
}

// Rewrite `path` as exactly `records`, each CRC-sealed by the journal.
void write_records(const std::string& path, const std::vector<Record>& records) {
  spit(path, "");
  Journal j = Journal::open(path);
  for (const Record& r : records) j.append_record(r.kind, r.seq, r.payload);
  j.close();
}

TEST(DurableSweep, UninterruptedRunMatchesPlainSweepBitExactly) {
  const std::string path = scratch_path("sweep.ckpt");
  const std::vector<SweepRow> plain = plain_rows();
  ASSERT_TRUE(std::isnan(plain.back().cscq_short));  // a NaN pattern is journaled
  const durable::CheckpointedSweepResult r = checkpointed(path);
  ASSERT_EQ(r.rows.size(), plain.size());
  EXPECT_EQ(r.resumed, 0u);
  EXPECT_EQ(r.evaluated, plain.size());
  EXPECT_EQ(r.incomplete, 0u);
  expect_rows_bit_identical(r.rows, plain);
  // Second run resumes everything from the journaled rows, recomputing
  // nothing, and stays bit-identical.
  const durable::CheckpointedSweepResult again = checkpointed(path);
  EXPECT_EQ(again.resumed, plain.size());
  EXPECT_EQ(again.evaluated, 0u);
  expect_rows_bit_identical(again.rows, plain);
}

TEST(DurableSweep, PartialCheckpointResumesToIdenticalRows) {
  const std::string path = scratch_path("sweep_partial.ckpt");
  const std::vector<Record> full = finished_checkpoint(path);
  // Simulate a crash that journaled only half the rows: keep the identity
  // frame and every other row frame.
  std::vector<Record> partial{full[0]};
  for (std::size_t r = 1; r < full.size(); r += 2) partial.push_back(full[r]);
  write_records(path, partial);
  const durable::CheckpointedSweepResult r = checkpointed(path);
  EXPECT_EQ(r.resumed, small_grid().size() / 2);
  EXPECT_EQ(r.evaluated, small_grid().size() - r.resumed);
  expect_rows_bit_identical(r.rows, plain_rows());
}

TEST(DurableSweep, ExpiredBudgetRowsAreNotDoneAndResumeCompletes) {
  const std::string path = scratch_path("sweep_budget.ckpt");
  SweepOptions opts;
  opts.budget = RunBudget::with_timeout_ms(0.0);  // expired before point 1
  const durable::CheckpointedSweepResult interrupted = checkpointed(path, opts);
  EXPECT_EQ(interrupted.incomplete, small_grid().size());
  // Timed-out rows are budget artifacts: the checkpoint must not journal
  // them, so a resume with a real budget evaluates them for real.
  const durable::CheckpointedSweepResult completed = checkpointed(path);
  EXPECT_EQ(completed.resumed, 0u);
  EXPECT_EQ(completed.incomplete, 0u);
  expect_rows_bit_identical(completed.rows, plain_rows());
}

TEST(DurableSweep, RefusesACheckpointFromADifferentSweep) {
  const std::string path = scratch_path("sweep_identity.ckpt");
  (void)checkpointed(path);
  // Same path, different fixed parameter: grafting rows across sweeps would
  // silently fabricate results.
  EXPECT_THROW((void)durable::checkpointed_sweep_rho_short(path, 0.6, 1.0, 1.0, 1.0,
                                                           small_grid()),
               InvalidInputError);
  // Different axis entirely.
  EXPECT_THROW((void)durable::checkpointed_sweep_rho_long(path, 0.5, 1.0, 1.0, 1.0,
                                                          small_grid()),
               InvalidInputError);
  // A serve journal is no sweep's checkpoint.
  const std::string journal = scratch_path("sweep_identity_serve.ndjson");
  {
    Journal j = Journal::open(journal);
    (void)j.append_request("{\"id\":\"x\",\"op\":\"ping\"}");
  }
  EXPECT_THROW((void)checkpointed(journal), InvalidInputError);
  EXPECT_THROW((void)checkpointed(""), InvalidInputError);
}

TEST(DurableSweep, CheckpointCutMidFrameResumesAndAppendsCleanly) {
  const std::string path = scratch_path("sweep_cut.ckpt");
  (void)finished_checkpoint(path);
  const std::string bytes = slurp(path);
  // Cut inside the fifth frame (row 3): rows 0-2 survive, the rest is a
  // torn tail.
  std::size_t fifth = 0;
  for (int i = 0; i < 5; ++i) fifth = bytes.find("CSQJ1", i == 0 ? 0 : fifth + 1);
  ASSERT_NE(fifth, std::string::npos);
  spit(path, bytes.substr(0, fifth + 20));
  const durable::CheckpointedSweepResult r = checkpointed(path);
  EXPECT_EQ(r.resumed, 3u);
  EXPECT_EQ(r.evaluated, 3u);
  expect_rows_bit_identical(r.rows, plain_rows());
  // The torn bytes were trimmed before the first append: the file replays
  // whole, with no tail to discard, and a third run recomputes nothing.
  ReplayStats stats;
  EXPECT_EQ(durable::replay(path, &stats).size(), 1 + small_grid().size());
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(checkpointed(path).resumed, small_grid().size());

  // A cut inside the identity frame leaves nothing to trust: start fresh.
  spit(path, bytes.substr(0, 10));
  const durable::CheckpointedSweepResult fresh = checkpointed(path);
  EXPECT_EQ(fresh.resumed, 0u);
  expect_rows_bit_identical(fresh.rows, plain_rows());
  EXPECT_EQ(durable::replay(path).size(), 1 + small_grid().size());
}

TEST(DurableSweep, RetiredSnapshotFormatReplaysAsATornTailAndStartsFresh) {
  const std::string path = scratch_path("sweep_legacy.ckpt");
  spit(path, std::string("CSQCKPT1\x01\x00\x00\x00garbage", 20));
  const durable::CheckpointedSweepResult r = checkpointed(path);
  EXPECT_EQ(r.resumed, 0u);
  expect_rows_bit_identical(r.rows, plain_rows());
  EXPECT_EQ(checkpointed(path).resumed, small_grid().size());
}

TEST(DurableSweep, FlippedByteInNonFinalFrameThrowsCorrupt) {
  const std::string path = scratch_path("sweep_flip.ckpt");
  (void)finished_checkpoint(path);
  const std::string bytes = slurp(path);
  // A payload byte of the identity frame, then of a middle row frame:
  // either way well-formed frames follow, so this is tampering, not a tear.
  const std::size_t third = bytes.find("CSQJ1", bytes.find("CSQJ1", 1) + 1);
  for (const std::size_t at : {bytes.find("axis="), bytes.find('\n', third) + 3}) {
    std::string mangled = bytes;
    mangled[at] ^= 0x01;
    spit(path, mangled);
    EXPECT_THROW((void)checkpointed(path), CorruptJournalError) << "byte " << at;
    EXPECT_EQ(slurp(path), mangled) << "a refused checkpoint is left as found";
  }
}

TEST(DurableSweep, MalformedRowFrameThrowsCorruptAndNeverResizes) {
  const std::string path = scratch_path("sweep_malformed.ckpt");
  const std::vector<Record> full = finished_checkpoint(path);
  const std::string good = full[1].payload;  // row 0
  const auto expect_corrupt = [&](RecordKind kind, std::uint64_t seq,
                                   const std::string& payload, const char* what) {
    write_records(path, {full[0], full[2], Record{kind, seq, payload}});
    EXPECT_THROW((void)checkpointed(path), CorruptJournalError) << what;
  };
  expect_corrupt(RecordKind::kResponse, small_grid().size(), good, "seq == n");
  expect_corrupt(RecordKind::kResponse, std::uint64_t{1} << 62, good, "seq 2^62");
  expect_corrupt(RecordKind::kResponse, 0, good.substr(0, good.size() - 1) + "9",
                 "status byte 9");
  std::string bad_hex = good;
  bad_hex[3] = 'g';
  expect_corrupt(RecordKind::kResponse, 0, bad_hex, "bad hex");
  expect_corrupt(RecordKind::kResponse, 0, good.substr(0, good.size() - 2),
                 "one field short");
  expect_corrupt(RecordKind::kResponse, 0, good + " 0", "one field extra");
  expect_corrupt(RecordKind::kResponse, 1, good, "x of another grid point");
  expect_corrupt(RecordKind::kRequest, 0, good, "a second req frame");
}

TEST(DurableSweep, DuplicateRowFrameKeepsTheFirst) {
  const std::string path = scratch_path("sweep_dup.ckpt");
  std::vector<Record> records = finished_checkpoint(path);
  // A later, different (still well-formed) frame for row 0 must not win.
  Record dup = records[1];
  dup.payload.replace(17, 16, "3ff0000000000000");  // dedicated_short = 1.0
  records.push_back(dup);
  write_records(path, records);
  const durable::CheckpointedSweepResult r = checkpointed(path);
  EXPECT_EQ(r.resumed, small_grid().size());
  expect_rows_bit_identical(r.rows, plain_rows());
}

TEST(DurableSweep, FourThreadsMatchOneThreadBitExactly) {
  const std::vector<double> grid = linspace(0.05, 1.55, 16);
  const std::vector<SweepRow> serial = sweep_rho_short(0.5, 1.0, 1.0, 1.0, grid);
  SweepOptions opts;
  opts.threads = 4;
  const std::string path = scratch_path("sweep_threads.ckpt");
  const durable::CheckpointedSweepResult r =
      durable::checkpointed_sweep_rho_short(path, 0.5, 1.0, 1.0, 1.0, grid, opts);
  EXPECT_EQ(r.evaluated, grid.size());
  expect_rows_bit_identical(r.rows, serial);
  // Workers appended concurrently, in completion order; every frame is
  // whole and the file resumes all of them.
  ReplayStats stats;
  EXPECT_EQ(durable::replay(path, &stats).size(), 1 + grid.size());
  EXPECT_FALSE(stats.torn_tail);
  const durable::CheckpointedSweepResult again =
      durable::checkpointed_sweep_rho_short(path, 0.5, 1.0, 1.0, 1.0, grid, opts);
  EXPECT_EQ(again.resumed, grid.size());
  expect_rows_bit_identical(again.rows, serial);
}

// --- Serve + journal integration -------------------------------------------

serve::ServerOptions serial_opts() {
  serve::ServerOptions o;
  o.workers = 0;
  o.request_timeout_ms = 0.0;
  return o;
}

TEST(DurableServe, JournalsRequestsBeforeResponses) {
  const std::string path = scratch_path("serve.ndjson");
  std::vector<std::string> sunk;
  Journal journal = Journal::open(path);
  serve::ServerOptions o = serial_opts();
  o.journal = &journal;
  o.sink = [&sunk](const std::string& r) { sunk.push_back(r); };
  serve::Server server(o);
  const std::string r1 = server.call(analyze_line("j1", 0.5, 0.5));
  const std::string r2 = server.call(analyze_line("j2", 0.4, 0.3));
  journal.close();

  const Recovery rec = durable::recover(path);
  ASSERT_EQ(rec.requests.size(), 2u);
  EXPECT_EQ(rec.requests[0].request, analyze_line("j1", 0.5, 0.5));
  EXPECT_EQ(rec.requests[0].response, r1);  // exact response bytes on disk
  EXPECT_EQ(rec.requests[1].response, r2);
  ASSERT_EQ(sunk.size(), 2u);
  EXPECT_EQ(sunk[0], r1);
  // Frame order proves write-ahead: each request frame precedes its
  // response frame.
  const std::vector<Record> records = durable::replay(path);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].kind, RecordKind::kRequest);
  EXPECT_EQ(records[1].kind, RecordKind::kResponse);
  EXPECT_EQ(records[2].kind, RecordKind::kRequest);
  EXPECT_EQ(records[3].kind, RecordKind::kResponse);
}

TEST(DurableServe, RecoveredRequestsReExecuteByteIdentically) {
  const std::string path = scratch_path("serve_recover.ndjson");
  std::vector<std::string> original;
  {
    Journal journal = Journal::open(path);
    serve::ServerOptions o = serial_opts();
    o.journal = &journal;
    serve::Server server(o);
    original.push_back(server.call(analyze_line("r1", 0.5, 0.5)));
    original.push_back(server.call(analyze_line("r2", 0.4, 0.3)));
    journal.close();
  }
  // "Crash" after r2's request frame but before its response frame: cut the
  // journal back to just past r2's request record.
  const std::string full = slurp(path);
  const std::size_t r2_req = full.find("CSQJ1 req 2");
  ASSERT_NE(r2_req, std::string::npos);
  const std::size_t r2_payload_end = full.find('\n', full.find('\n', r2_req) + 1);
  spit(path, full.substr(0, r2_payload_end + 1));

  Recovery rec = durable::recover(path);
  ASSERT_EQ(rec.requests.size(), 2u);
  ASSERT_TRUE(rec.requests[0].completed());
  EXPECT_EQ(rec.requests[0].response, original[0]);
  ASSERT_FALSE(rec.requests[1].completed());

  // Restart: journal continues past the recovered history; the unfinished
  // request re-executes under its original seq and lands the same bytes.
  JournalOptions jopts;
  jopts.next_seq = rec.stats.max_seq + 1;
  Journal journal = Journal::open(path, jopts);
  serve::ServerOptions o = serial_opts();
  o.journal = &journal;
  serve::Server server(o);
  auto ticket = server.submit_recovered(rec.requests[1].request, rec.requests[1].seq);
  while (server.process_one()) {
  }
  EXPECT_EQ(ticket->wait(), original[1]);
  EXPECT_EQ(server.stats().recovered, 1);
  journal.close();
  // The re-executed response was journaled against the *original* seq: a
  // second recovery sees both requests completed, no new request frames.
  const Recovery again = durable::recover(path);
  ASSERT_EQ(again.requests.size(), 2u);
  EXPECT_EQ(again.requests[1].response, original[1]);
}

TEST(DurableServe, JournalAppendFailureRefusesAdmissionLoudly) {
  const std::string path = scratch_path("serve_fault.ndjson");
  Journal journal = Journal::open(path);
  serve::ServerOptions o = serial_opts();
  o.journal = &journal;
  serve::Server server(o);
  fault::arm(fault::parse_arm_spec("durable.journal.append:1:throw:Internal"));
  const std::string r = server.call(analyze_line("f1", 0.5, 0.5));
  fault::disarm_all();
  // The request could not be made durable, so it was refused with an error
  // response — never silently dropped, never run un-journaled.
  EXPECT_NE(r.find("\"ok\":false"), std::string::npos) << r;
  EXPECT_TRUE(durable::recover(path).requests.empty());
  // The journal recovers for the next request.
  const std::string r2 = server.call(analyze_line("f2", 0.5, 0.5));
  EXPECT_NE(r2.find("\"ok\":true"), std::string::npos) << r2;
  journal.close();
  EXPECT_EQ(durable::recover(path).requests.size(), 1u);
}

TEST(DurableServe, InvalidBurstIsBoundedAndResets) {
  std::vector<std::string> sunk;
  serve::ServerOptions o = serial_opts();
  o.invalid_burst_limit = 3;
  o.sink = [&sunk](const std::string& r) { sunk.push_back(r); };
  serve::Server server(o);
  std::vector<std::shared_ptr<serve::Ticket>> tickets;
  for (int i = 0; i < 10; ++i) tickets.push_back(server.submit("not json #" + std::to_string(i)));
  // Lines 1-2: per-line errors. Line 3: the one burst announcement. Lines
  // 4-10: suppressed — tickets resolve empty, nothing reaches the sink.
  ASSERT_EQ(sunk.size(), 3u);
  EXPECT_NE(sunk[2].find("consecutive malformed lines"), std::string::npos) << sunk[2];
  for (int i = 3; i < 10; ++i) EXPECT_EQ(tickets[i]->wait(), "");
  serve::Server::Stats s = server.stats();
  EXPECT_EQ(s.invalid, 10);
  EXPECT_EQ(s.invalid_suppressed, 7);
  EXPECT_EQ(s.received, 10);
  // A well-formed line ends the burst; the next malformed line gets a
  // normal per-line error again.
  EXPECT_NE(server.call(analyze_line("ok", 0.5, 0.5)).find("\"ok\":true"),
            std::string::npos);
  sunk.clear();
  (void)server.submit("still not json");
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_NE(sunk[0].find("InvalidInput"), std::string::npos);
  s = server.stats();
  EXPECT_EQ(s.received, s.admitted + s.shed + s.invalid);  // balance holds
}

TEST(DurableServe, BurstLimitZeroAnswersEveryLine) {
  std::vector<std::string> sunk;
  serve::ServerOptions o = serial_opts();
  o.invalid_burst_limit = 0;
  o.sink = [&sunk](const std::string& r) { sunk.push_back(r); };
  serve::Server server(o);
  for (int i = 0; i < 20; ++i) (void)server.submit("garbage");
  EXPECT_EQ(sunk.size(), 20u);
  EXPECT_EQ(server.stats().invalid_suppressed, 0);
}

// --- Crash drills against the real binaries --------------------------------
//
// These fork/exec the installed csq_serve / csq_cli (paths baked in by the
// build), kill them at an arbitrary point, restart, and assert the recovery
// contract. The assertions are timing-independent: whatever the kill hit,
// every journaled request gets exactly one response on restart and
// re-emitted bytes match pre-crash bytes.

struct Child {
  pid_t pid = -1;
  int stdin_fd = -1;
  int stdout_fd = -1;
};

Child spawn(const char* bin, const std::vector<std::string>& args) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0) ADD_FAILURE() << "pipe failed";
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(bin, argv.data());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  Child c;
  c.pid = pid;
  c.stdin_fd = in_pipe[1];
  c.stdout_fd = out_pipe[0];
  return c;
}

void write_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::write(fd, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // child died mid-write: fine, the drill kills it anyway
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string read_until_eof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

// The "id" field of a request/response line (the drills control the ids).
std::string id_of(const std::string& line) {
  const std::size_t key = line.find("\"id\":\"");
  if (key == std::string::npos) return "";
  const std::size_t start = key + 6;
  return line.substr(start, line.find('"', start) - start);
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

TEST(ServeCrash, KillMidLoadThenRecoverDeliversExactlyOnce) {
  const std::string journal = scratch_path("crash.ndjson");
  const int kRequests = 24;
  Child serve = spawn(CSQ_SERVE_BIN, {"--workers", "0", "--journal=" + journal,
                                      "--fsync-every", "1"});
  for (int i = 0; i < kRequests; ++i)
    write_line(serve.stdin_fd, analyze_line(numbered("c", i), 0.3 + 0.01 * i, 0.4));
  // Let it chew through part of the load, then kill it dead — no drain, no
  // destructor, whatever instant the scheduler picked.
  ::usleep(150 * 1000);
  ::kill(serve.pid, SIGKILL);
  ::close(serve.stdin_fd);
  const std::string pre_crash = read_until_eof(serve.stdout_fd);
  ::close(serve.stdout_fd);
  EXPECT_EQ(wait_exit(serve.pid), -SIGKILL);

  // The journal must recover cleanly (a torn tail is fine, corruption not).
  Recovery rec;
  ASSERT_NO_THROW(rec = durable::recover(journal));

  // Restart with --recover and no new traffic: its stdout is the recovery
  // verdict — completed requests re-emitted, torn ones re-executed.
  Child again = spawn(CSQ_SERVE_BIN, {"--workers", "0", "--journal=" + journal,
                                      "--recover"});
  ::close(again.stdin_fd);  // immediate EOF
  const std::string post = read_until_eof(again.stdout_fd);
  ::close(again.stdout_fd);
  ASSERT_EQ(wait_exit(again.pid), 0) << post;

  // Exactly-once: every admitted (journaled) request answers exactly once
  // on restart; nothing extra appears.
  std::vector<std::string> post_lines = lines_of(post);
  ASSERT_EQ(post_lines.size(), rec.requests.size());
  for (std::size_t i = 0; i < rec.requests.size(); ++i)
    EXPECT_EQ(id_of(post_lines[i]), id_of(rec.requests[i].request)) << i;
  // Byte-identical re-delivery: any response the client saw before the
  // crash matches the restart's bytes for the same id, byte for byte.
  for (const std::string& before : lines_of(pre_crash)) {
    bool matched = false;
    for (const std::string& after : post_lines)
      if (id_of(after) == id_of(before)) {
        EXPECT_EQ(after, before);
        matched = true;
      }
    EXPECT_TRUE(matched) << "response for id " << id_of(before)
                         << " seen pre-crash but missing after recovery";
  }
}

TEST(ServeCrash, SecondCrashDuringRecoveryStillConverges) {
  const std::string journal = scratch_path("crash2.ndjson");
  Child serve = spawn(CSQ_SERVE_BIN, {"--workers", "0", "--journal=" + journal,
                                      "--fsync-every", "1"});
  for (int i = 0; i < 12; ++i)
    write_line(serve.stdin_fd, analyze_line(numbered("d", i), 0.5, 0.3));
  ::usleep(80 * 1000);
  ::kill(serve.pid, SIGKILL);
  ::close(serve.stdin_fd);
  (void)read_until_eof(serve.stdout_fd);
  ::close(serve.stdout_fd);
  (void)wait_exit(serve.pid);

  // First recovery also gets killed mid-flight.
  Child r1 = spawn(CSQ_SERVE_BIN, {"--workers", "0", "--journal=" + journal,
                                   "--recover"});
  ::usleep(30 * 1000);
  ::kill(r1.pid, SIGKILL);
  ::close(r1.stdin_fd);
  (void)read_until_eof(r1.stdout_fd);
  ::close(r1.stdout_fd);
  (void)wait_exit(r1.pid);

  // Second recovery converges: one response per journaled request.
  Recovery rec;
  ASSERT_NO_THROW(rec = durable::recover(journal));
  Child r2 = spawn(CSQ_SERVE_BIN, {"--workers", "0", "--journal=" + journal,
                                   "--recover"});
  ::close(r2.stdin_fd);
  const std::string post = read_until_eof(r2.stdout_fd);
  ::close(r2.stdout_fd);
  ASSERT_EQ(wait_exit(r2.pid), 0) << post;
  EXPECT_EQ(lines_of(post).size(), rec.requests.size());
}

TEST(ServeCrash, TornTailThenRecoveredAppendsThenRecoverAgain) {
  // The reviewer scenario for the trim fix: a power-loss torn tail, one
  // recovered run that serves *new* traffic (appending frames), then a
  // second recovery. Without trimming, the new frames land after the torn
  // debris and the second recovery dies with CorruptJournalError (exit 10).
  const std::string journal = scratch_path("crash_torn.ndjson");
  {
    Journal j = Journal::open(journal);
    (void)j.append_request(analyze_line("t0", 0.5, 0.3));
    (void)j.append_request(analyze_line("t1", 0.4, 0.3));
    j.close();
  }
  const std::string full = slurp(journal);
  spit(journal, full.substr(0, full.size() - 9));  // tear the final frame

  // Recovery run #1 also takes one fresh request before draining.
  Child r1 = spawn(CSQ_SERVE_BIN, {"--workers", "0", "--journal=" + journal,
                                   "--fsync-every", "1", "--recover"});
  write_line(r1.stdin_fd, analyze_line("t2", 0.6, 0.2));
  ::close(r1.stdin_fd);
  const std::string out1 = read_until_eof(r1.stdout_fd);
  ::close(r1.stdout_fd);
  ASSERT_EQ(wait_exit(r1.pid), 0) << out1;
  EXPECT_EQ(lines_of(out1).size(), 2u) << out1;  // t0 re-executed + t2 served

  // Recovery run #2 must still read a clean journal: every request answers
  // exactly once, exit 0 — not CorruptJournalError.
  Recovery rec;
  ASSERT_NO_THROW(rec = durable::recover(journal));
  ASSERT_EQ(rec.requests.size(), 2u);
  Child r2 = spawn(CSQ_SERVE_BIN, {"--workers", "0", "--journal=" + journal,
                                   "--recover"});
  ::close(r2.stdin_fd);
  const std::string out2 = read_until_eof(r2.stdout_fd);
  ::close(r2.stdout_fd);
  ASSERT_EQ(wait_exit(r2.pid), 0) << out2;
  const std::vector<std::string> replies = lines_of(out2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(id_of(replies[0]), "t0");
  EXPECT_EQ(id_of(replies[1]), "t2");
}

TEST(ServeCrash, CorruptJournalRefusesRecoveryWithExitTen) {
  const std::string journal = scratch_path("crash_corrupt.ndjson");
  {
    Journal j = Journal::open(journal);
    (void)j.append_request("{\"id\":\"x\",\"op\":\"ping\"}");
    (void)j.append_request("{\"id\":\"y\",\"op\":\"ping\"}");
    j.close();
  }
  std::string bytes = slurp(journal);
  bytes[bytes.find("\"x\"") + 1] ^= 0x20;  // mid-file damage, valid frame after
  spit(journal, bytes);
  Child serve = spawn(CSQ_SERVE_BIN, {"--workers", "0", "--journal=" + journal,
                                      "--recover"});
  ::close(serve.stdin_fd);
  (void)read_until_eof(serve.stdout_fd);
  ::close(serve.stdout_fd);
  EXPECT_EQ(wait_exit(serve.pid), 10);
}

TEST(ServeCrash, SignalStormNeitherKillsNorWedgesTheServer) {
  // Regression for the EINTR handling: SIGUSR1 interrupts the poll loop
  // (handler installed without SA_RESTART) and must change nothing; SIGTERM
  // must still drain promptly afterwards.
  Child serve = spawn(CSQ_SERVE_BIN, {"--workers", "0"});
  // Handshake first: a served ping proves main() is past handler
  // installation — a SIGUSR1 during exec startup would hit the default
  // action (terminate) and test nothing.
  write_line(serve.stdin_fd, "{\"id\":\"hello\",\"op\":\"ping\"}");
  std::string hello;
  char hbuf[256];
  while (hello.find('\n') == std::string::npos) {
    const ssize_t n = ::read(serve.stdout_fd, hbuf, sizeof(hbuf));
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    hello.append(hbuf, static_cast<std::size_t>(n));
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(::kill(serve.pid, SIGUSR1), 0);
    ::usleep(1000);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(serve.pid, &status, WNOHANG), 0)
      << "server died under a SIGUSR1 storm";
  // Still serving after the storm.
  write_line(serve.stdin_fd, "{\"id\":\"alive\",\"op\":\"ping\"}");
  std::string out;
  char buf[256];
  while (out.find('\n') == std::string::npos) {
    const ssize_t n = ::read(serve.stdout_fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    out.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_NE(out.find("\"pong\":true"), std::string::npos) << out;
  ASSERT_EQ(::kill(serve.pid, SIGTERM), 0);
  ::close(serve.stdin_fd);
  EXPECT_EQ(wait_exit(serve.pid), 0);
  ::close(serve.stdout_fd);
}

TEST(SweepCrash, InterruptedCliSweepResumesByteIdentically) {
  const std::string ckpt = scratch_path("cli.ckpt");
  const std::string golden = scratch_path("golden.csv");
  const std::string resumed = scratch_path("resumed.csv");
  const std::string sweep_flags =
      " sweep --x rho_s --from 0.1 --to 0.9 --points 8 --csv";
  const std::string cli = CSQ_CLI_BIN;
  ASSERT_EQ(std::system((cli + sweep_flags + " > " + golden).c_str()), 0);
  // Interrupt deterministically: an expired budget times out every point,
  // leaving a checkpoint with zero completed rows (same shape as a SIGKILL
  // mid-sweep; tools/chaos_crash.sh drills the literal-SIGKILL version).
  ASSERT_EQ(std::system((cli + sweep_flags + " --checkpoint " + ckpt +
                         " --timeout-ms 0 > /dev/null 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((cli + sweep_flags + " --checkpoint " + ckpt + " > " +
                         resumed + " 2> /dev/null")
                            .c_str()),
            0);
  EXPECT_EQ(slurp(resumed), slurp(golden));
}

TEST(SweepCrash, CorruptCheckpointExitsTen) {
  const std::string ckpt = scratch_path("cli_corrupt.ckpt");
  const std::string cli = std::string(CSQ_CLI_BIN) +
                          " sweep --x rho_s --from 0.1 --to 0.9 --points 4 --csv --checkpoint " +
                          ckpt + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cli.c_str()), 0);
  std::string bytes = slurp(ckpt);
  bytes[bytes.find("axis=")] ^= 0x01;  // identity payload; row frames follow
  spit(ckpt, bytes);
  const int status = std::system(cli.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 10);
  EXPECT_EQ(slurp(ckpt), bytes);  // refused, not overwritten
}

}  // namespace
}  // namespace csq
