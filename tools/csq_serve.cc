// csq_serve — long-lived NDJSON analysis server over stdin/stdout.
//
// Reads one JSON request per line from stdin (docs/serving.md has the
// schema), dispatches it onto the serve::Server (admission control,
// degradation ladder, LRU memo-cache) and writes one JSON
// response per line to stdout, in completion order. Responses carry the
// request's "id" so clients can match them up.
//
// Lifecycle: runs until stdin EOF, SIGTERM/SIGINT, or --max-requests is
// reached, then drains — admission stops, in-flight work gets
// --drain-timeout-ms to finish before cancellation, every admitted request
// still receives a response — flushes --metrics/--trace files and exits 0.
// The signal handler only sets a flag; the poll loop notices it within
// ~50 ms, so a drain is always an orderly drain.
//
// Flags (all --key=value or --key value):
//   --workers N             worker threads (default 2; 0 = serial: each line
//                           is executed inline before the next is read)
//   --queue-depth N         pending-request shed threshold (default 64)
//   --max-cost X            in-flight cost shed threshold (default 1024)
//   --request-timeout-ms X  per-request budget (default 10000; 0 = none)
//   --drain-timeout-ms X    drain grace before cancellation (default 2000)
//   --shed-retry-after-ms X base retry-after hint on sheds (default 10)
//   --no-degrade            hard-error instead of the degradation ladder
//   --cache-capacity N      solver memo-cache entries (default 256)
//   --op-threads N          solver threads inside one request (default 1)
//   --max-requests N        drain after admitting N requests (test hook)
//   --metrics[=file]        obs counter dump on exit (stdout without =file)
//   --trace=file            Chrome trace-event JSON on exit
//   --fault spec[,...]      arm fault sites (core/faultpoint.h)
//   --journal=file          write-ahead request journal: every admitted
//                           request is journaled before it enters the queue,
//                           every response before it is delivered
//   --recover               replay the --journal file before serving:
//                           completed requests re-emit their recorded
//                           response bytes, unfinished ones re-execute
//   --fsync-every N         journal appends per fsync batch (default 32)
//
// Exit codes follow the taxonomy table (csq::exit_code): 0 after a clean
// drain, 2 on malformed flags, 10 when --recover finds mid-file journal
// corruption (a torn tail is normal and recovered from), 1 on internal
// startup failures.
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/faultpoint.h"
#include "core/numeric.h"
#include "core/status.h"
#include "durable/journal.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace {

using namespace csq;

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop(int) { g_stop = 1; }

extern "C" void handle_wake(int) {}  // SIGUSR1: interrupt poll/read, change nothing

// Install handlers WITHOUT SA_RESTART: a signal must interrupt the blocking
// poll/read with EINTR so the pump loop re-checks g_stop promptly.
// std::signal gives BSD (SA_RESTART) semantics on glibc, which would leave
// the EINTR paths dead and a drain waiting on the next stdin byte.
void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_stop;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  sa.sa_handler = handle_wake;
  sigaction(SIGUSR1, &sa, nullptr);
}

struct Flags {
  serve::ServerOptions server;
  long max_requests = -1;  // < 0 = unlimited
  bool metrics = false;
  std::string metrics_file;  // "" = stdout
  std::string trace_file;
  std::string fault_spec;
  std::string journal_file;
  bool recover = false;
  int fsync_every = 32;
};

double number_flag(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double v = 0.0;
  bool ok = true;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok || used != value.size())
    throw InvalidInputError("flag --" + key + " needs a number, got \"" + value + "\"");
  return v;
}

// Range and integrality are checked on the double, before the cast: casting
// NaN or a value outside int's range is undefined behaviour.
int int_flag(const std::string& key, const std::string& value, int lo, int hi) {
  const double v = number_flag(key, value);
  if (!(v >= lo && v <= hi) || !num::exactly_eq(std::trunc(v), v))
    throw InvalidInputError("flag --" + key + " must be an integer in [" +
                            std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(v);
}

Flags parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      throw InvalidInputError("expected --flag, got " + key);
    key = key.substr(2);
    if (key.empty() || key[0] == '=')
      throw InvalidInputError("malformed flag \"" + std::string(argv[i]) +
                              "\": empty flag name");
    std::string value;
    bool has_value = false;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      if (eq + 1 == key.size())
        throw InvalidInputError("malformed flag \"" + std::string(argv[i]) +
                                "\": empty value (drop the '=' for a boolean flag)");
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
      has_value = true;
    }

    const auto need = [&]() -> const std::string& {
      if (!has_value) throw InvalidInputError("flag --" + key + " needs a value");
      return value;
    };
    if (key == "workers") f.server.workers = int_flag(key, need(), 0, 256);
    else if (key == "queue-depth")
      f.server.queue_depth = static_cast<std::size_t>(int_flag(key, need(), 1, 1 << 20));
    else if (key == "max-cost") f.server.max_inflight_cost = number_flag(key, need());
    else if (key == "request-timeout-ms") f.server.request_timeout_ms = number_flag(key, need());
    else if (key == "drain-timeout-ms") f.server.drain_timeout_ms = number_flag(key, need());
    else if (key == "shed-retry-after-ms")
      f.server.shed_retry_after_ms = number_flag(key, need());
    else if (key == "no-degrade") {
      if (has_value) throw InvalidInputError("--no-degrade does not take a value");
      f.server.allow_degraded = false;
    }
    else if (key == "cache-capacity")
      f.server.cache_capacity = static_cast<std::size_t>(int_flag(key, need(), 0, 1 << 20));
    else if (key == "op-threads") f.server.op_threads = int_flag(key, need(), 0, 256);
    else if (key == "max-requests") f.max_requests = int_flag(key, need(), 1, 1 << 30);
    else if (key == "metrics") {
      f.metrics = true;
      if (has_value) f.metrics_file = value;
    } else if (key == "trace") {
      if (!has_value)
        throw InvalidInputError("--trace needs a file name (--trace=out.json)");
      f.trace_file = value;
    } else if (key == "fault") f.fault_spec = need();
    else if (key == "journal") f.journal_file = need();
    else if (key == "recover") {
      if (has_value) throw InvalidInputError("--recover does not take a value");
      f.recover = true;
    } else if (key == "fsync-every") f.fsync_every = int_flag(key, need(), 1, 1 << 20);
    else
      throw InvalidInputError("unknown flag --" + key + " (see tools/csq_serve.cc header)");
  }
  if (f.recover && f.journal_file.empty())
    throw InvalidInputError("--recover needs --journal=file to replay from");
  return f;
}

[[nodiscard]] bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return out.good();
}

int write_observability(const Flags& f) {
  int rc = 0;
  if (f.metrics) {
    const std::string json = obs::Registry::instance().metrics_json();
    if (f.metrics_file.empty()) {
      std::cout << json;
    } else if (!write_file(f.metrics_file, json)) {
      std::cerr << "error: cannot write metrics file '" << f.metrics_file << "'\n";
      rc = 2;
    }
  }
  if (!f.trace_file.empty() && !write_file(f.trace_file, obs::chrome_trace_json())) {
    std::cerr << "error: cannot write trace file '" << f.trace_file << "'\n";
    rc = 2;
  }
  return rc;
}

// Pump stdin lines into the server until EOF, a signal, or the request
// quota. In serial mode (--workers 0) each request runs to completion on
// this thread before the next line is read, so responses come back in
// request order, bit-identically. Returns the number of submitted requests.
long pump(serve::Server& server, long max_requests, bool serial) {
  std::string buffered;
  char buf[4096];
  long submitted = 0;
  bool eof = false;
  while (!eof && g_stop == 0 && (max_requests < 0 || submitted < max_requests)) {
    struct pollfd pfd;
    pfd.fd = STDIN_FILENO;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = poll(&pfd, 1, 50);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks g_stop
      break;
    }
    if (ready == 0) continue;  // timeout: re-check g_stop
    const ssize_t n = read(STDIN_FILENO, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      eof = true;
    } else {
      buffered.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (std::size_t nl = buffered.find('\n', start); nl != std::string::npos;
         nl = buffered.find('\n', start)) {
      const std::string line = buffered.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      server.submit(line);
      ++submitted;
      if (serial)
        while (server.process_one()) {
        }
      if (max_requests >= 0 && submitted >= max_requests) break;
    }
    buffered.erase(0, start);
    // A final unterminated line at EOF still counts as a request.
    if (eof && !buffered.empty() && (max_requests < 0 || submitted < max_requests)) {
      server.submit(buffered);
      ++submitted;
      if (serial)
        while (server.process_one()) {
        }
      buffered.clear();
    }
  }
  return submitted;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  try {
    flags = parse_flags(argc, argv);
    fault::arm_list(flags.fault_spec);
  } catch (const Error& e) {
    std::cerr << "csq_serve: " << e.status().message << "\n";
    return exit_code(e.status().code);
  }

  install_signal_handlers();

  int rc = 0;
  try {
    flags.server.sink = [](const std::string& response) {
      std::cout << response << "\n" << std::flush;
    };
    durable::Journal journal;
    std::vector<durable::RecoveredRequest> replay_backlog;
    if (!flags.journal_file.empty()) {
      durable::JournalOptions jopts;
      jopts.fsync_every = flags.fsync_every;
      if (flags.recover) {
        durable::Recovery rec = durable::recover(flags.journal_file);
        jopts.next_seq = rec.stats.max_seq + 1;
        // Physically drop a torn tail before appending: new frames after a
        // partial frame would read as mid-file corruption on the *next*
        // recovery, making one crash fatal to the journal.
        if (rec.stats.torn_tail) jopts.trim_tail_bytes = rec.stats.torn_bytes;
        for (durable::RecoveredRequest& rr : rec.requests) {
          if (rr.completed()) {
            // Re-emit the recorded bytes: the client may never have seen
            // them, and a duplicate of identical bytes is harmless.
            std::cout << rr.response << "\n" << std::flush;
          } else {
            replay_backlog.push_back(std::move(rr));
          }
        }
      }
      journal = durable::Journal::open(flags.journal_file, jopts);
      flags.server.journal = &journal;
    }
    serve::Server server(flags.server);
    const bool serial = flags.server.workers == 0;
    // Unfinished recovered requests re-execute under their original seq
    // before any new stdin traffic, preserving journal order.
    for (const durable::RecoveredRequest& rr : replay_backlog) {
      server.submit_recovered(rr.request, rr.seq);
      if (serial)
        while (server.process_one()) {
        }
    }
    pump(server, flags.max_requests, serial);
    server.drain();
    journal.close();
  } catch (const Error& e) {
    std::cerr << "csq_serve: " << e.status().message << "\n";
    rc = exit_code(e.status().code);
  } catch (const std::exception& e) {
    std::cerr << "csq_serve: " << e.what() << "\n";
    rc = 1;
  }
  const int obs_rc = write_observability(flags);
  return rc != 0 ? rc : obs_rc;
}
