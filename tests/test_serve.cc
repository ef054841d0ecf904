// The csq_serve core (src/serve/): JSON codec, request schema, LRU
// memo-cache, and the Server itself — admission control, budget slicing,
// drain, and the determinism contract (bit-identical responses across
// worker counts).
//
// Suite layout mirrors the ctest labels (tests/serve_labels.cmake):
//   Serve*       tier1;serve — deterministic, no fault injection needed
//   ServeSoak    tier1;serve — the concurrent mixed-traffic soak
//   ServeChaos   tier1;chaos — fault-injected degrade/shed paths
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/faultpoint.h"
#include "core/status.h"
#include "serve/cache.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/server.h"

namespace csq {
namespace {

using serve::JsonValue;
using serve::parse_json;
using serve::parse_request;
using serve::Request;
using serve::Server;
using serve::ServerOptions;
using serve::SolverCache;
using serve::Ticket;

// --- helpers ---------------------------------------------------------------

std::string analyze_line(const std::string& id, double rho_s, double rho_l,
                         const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"op\":\"analyze\",\"rho_s\":" +
         std::to_string(rho_s) + ",\"rho_l\":" + std::to_string(rho_l) +
         ",\"mean_s\":1,\"mean_l\":1,\"scv_l\":1" + extra + "}";
}

// Field access on a response line; fails the test on schema surprises.
JsonValue parsed(const std::string& response) {
  JsonValue v = parse_json(response);
  EXPECT_TRUE(v.is_object()) << response;
  return v;
}

bool response_ok(const std::string& response) {
  const JsonValue v = parsed(response);
  const JsonValue* ok = v.find("ok");
  return ok != nullptr && ok->as_bool("ok");
}

std::string error_code(const std::string& response) {
  const JsonValue v = parsed(response);
  const JsonValue* err = v.find("error");
  if (err == nullptr || err->find("code") == nullptr) return "";
  return err->find("code")->as_string("code");
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

// A serial server: nothing runs until process_one()/call() drives it.
ServerOptions serial_opts() {
  ServerOptions o;
  o.workers = 0;
  o.request_timeout_ms = 0.0;  // unlimited unless the request says otherwise
  return o;
}

// --- JSON codec ------------------------------------------------------------

TEST(ServeJson, ParsesNestedValuesAndEscapes) {
  const JsonValue v = parse_json(
      "{\"a\": [1, -2.5e1, true, null], \"s\": \"q\\\"\\n\\u0041\"}");
  ASSERT_TRUE(v.is_object());
  const std::vector<JsonValue>& a = v.find("a")->as_array("a");
  ASSERT_EQ(a.size(), 4u);
  EXPECT_DOUBLE_EQ(a[0].as_number("a0"), 1.0);
  EXPECT_DOUBLE_EQ(a[1].as_number("a1"), -25.0);
  EXPECT_TRUE(a[2].as_bool("a2"));
  EXPECT_TRUE(a[3].is_null());
  EXPECT_EQ(v.find("s")->as_string("s"), "q\"\nA");
}

TEST(ServeJson, RejectsHostileInput) {
  EXPECT_THROW((void)parse_json(""), InvalidInputError);
  EXPECT_THROW((void)parse_json("{} trailing"), InvalidInputError);
  EXPECT_THROW((void)parse_json("{\"a\":01}"), InvalidInputError);
  EXPECT_THROW((void)parse_json("{\"a\":+1}"), InvalidInputError);
  EXPECT_THROW((void)parse_json("{\"a\"}"), InvalidInputError);
  EXPECT_THROW((void)parse_json("\"unterminated"), InvalidInputError);
  // Duplicate keys are ambiguous and could smuggle a second value past
  // validation; the parser rejects them outright.
  EXPECT_THROW((void)parse_json("{\"a\":1,\"a\":2}"), InvalidInputError);
  // Depth bomb: past the 64-level cap.
  std::string bomb;
  for (int i = 0; i < 70; ++i) bomb += "[";
  for (int i = 0; i < 70; ++i) bomb += "]";
  EXPECT_THROW((void)parse_json(bomb), InvalidInputError);
  // At a legal depth the same shape is fine.
  std::string deep;
  for (int i = 0; i < 60; ++i) deep += "[";
  for (int i = 0; i < 60; ++i) deep += "]";
  EXPECT_NO_THROW((void)parse_json(deep));
}

TEST(ServeJson, EscapeAndNumberRendering) {
  EXPECT_EQ(serve::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(serve::json_number(1.5), "1.5");
  EXPECT_EQ(serve::json_number(0.0), "0");
  // Non-finite values have no JSON spelling; they render as null.
  EXPECT_EQ(serve::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

// --- Request schema --------------------------------------------------------

TEST(ServeRequest, AnalyzeDefaults) {
  const Request r = parse_request(analyze_line("a1", 0.5, 0.5));
  EXPECT_EQ(r.id, "a1");
  EXPECT_EQ(r.op, serve::OpKind::kAnalyze);
  EXPECT_EQ(r.policy, Policy::kCsCq);
  EXPECT_EQ(r.verify, VerifyLevel::kBasic);
  EXPECT_LT(r.timeout_ms, 0.0);  // "server default"
  EXPECT_DOUBLE_EQ(r.cost(), 1.0);
}

TEST(ServeRequest, UnknownFieldsAreRejectedNotIgnored) {
  try {
    (void)parse_request(
        "{\"id\":\"x\",\"op\":\"analyze\",\"rho_i\":0.5,\"rho_l\":0.5,"
        "\"rho_s\":0.5}");
    FAIL() << "typoed field accepted";
  } catch (const InvalidInputError& e) {
    EXPECT_NE(e.status().message.find("rho_i"), std::string::npos);
  }
}

TEST(ServeRequest, ValidationGuards) {
  EXPECT_THROW((void)parse_request("[1,2]"), InvalidInputError);
  EXPECT_THROW((void)parse_request("{\"op\":\"fly\"}"), InvalidInputError);
  EXPECT_THROW((void)parse_request("{\"op\":\"analyze\",\"rho_s\":0.5,"
                                   "\"rho_l\":0.5,\"scv_l\":0.5}"),
               InvalidInputError);
  EXPECT_THROW((void)parse_request("{\"id\":\"" + std::string(300, 'x') +
                                   "\",\"op\":\"ping\"}"),
               InvalidInputError);
  EXPECT_THROW(
      (void)parse_request("{\"op\":\"sweep\",\"axis\":\"rho_s\",\"from\":0.1,"
                          "\"to\":0.5,\"points\":1000,\"rho_l\":0.5}"),
      InvalidInputError);
}

TEST(ServeRequest, CostScalesWithWork) {
  EXPECT_DOUBLE_EQ(parse_request("{\"op\":\"ping\"}").cost(), 0.0);
  const Request sweep = parse_request(
      "{\"op\":\"sweep\",\"axis\":\"rho_s\",\"from\":0.1,\"to\":0.5,"
      "\"points\":32,\"rho_l\":0.5}");
  EXPECT_DOUBLE_EQ(sweep.cost(), 32.0);
  const Request sim = parse_request(
      "{\"op\":\"simulate\",\"rho_s\":0.5,\"rho_l\":0.5,"
      "\"completions\":200000,\"replications\":4}");
  EXPECT_DOUBLE_EQ(sim.cost(), 8.0);
}

TEST(ServeRequest, CacheKeyIsCanonicalAndVerifyAware) {
  const Request a = parse_request(analyze_line("a", 0.5, 0.5));
  const Request b = parse_request(analyze_line("b", 0.5, 0.5));
  EXPECT_EQ(a.cache_key(), b.cache_key());  // id does not enter the key
  const Request c = parse_request(analyze_line("c", 0.5, 0.5, ",\"verify\":\"full\""));
  EXPECT_NE(a.cache_key(), c.cache_key());
  const Request d = parse_request(analyze_line("d", 0.51, 0.5));
  EXPECT_NE(a.cache_key(), d.cache_key());
}

// --- LRU cache -------------------------------------------------------------

TEST(ServeCache, LruEvictionOrder) {
  SolverCache cache(2);
  PolicyMetrics m;
  m.shorts.mean_response = 1.0;
  cache.insert("a", m);
  cache.insert("b", m);
  EXPECT_TRUE(cache.lookup("a").has_value());  // bump a to most-recent
  cache.insert("c", m);                        // evicts b, the LRU entry
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
  const SolverCache::Stats s = cache.stats();
  EXPECT_EQ(s.inserts, 3);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(s.misses, 1);
}

TEST(ServeCache, CapacityZeroDisables) {
  SolverCache cache(0);
  PolicyMetrics m;
  cache.insert("a", m);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.stats().inserts, 0);
}

// --- Server: serial-mode behaviour ----------------------------------------

TEST(ServeServer, PingAndAnalyzeRoundTrip) {
  Server server(serial_opts());
  const std::string pong = server.call("{\"id\":\"p\",\"op\":\"ping\"}");
  EXPECT_TRUE(response_ok(pong));
  EXPECT_NE(pong.find("\"pong\":true"), std::string::npos);

  const std::string a = server.call(analyze_line("a", 0.5, 0.5));
  EXPECT_TRUE(response_ok(a)) << a;
  const JsonValue v = parsed(a);
  EXPECT_EQ(v.find("id")->as_string("id"), "a");
  ASSERT_NE(v.find("result"), nullptr);
  EXPECT_GT(v.find("result")->find("shorts")->find("mean_response")->as_number("E[T]"),
            1.0);
  // The same request again is byte-identical (and a cache hit).
  EXPECT_EQ(server.call(analyze_line("a", 0.5, 0.5)), a);
  EXPECT_EQ(server.cache_stats().hits, 1);
}

TEST(ServeServer, MalformedLinesBecomeInvalidInputResponses) {
  Server server(serial_opts());
  const std::string r1 = server.call("this is not json");
  EXPECT_FALSE(response_ok(r1));
  EXPECT_EQ(error_code(r1), "InvalidInput");
  EXPECT_EQ(parsed(r1).find("id")->as_string("id"), "");  // no id recoverable
  // A well-formed line with a bad schema still echoes the id.
  const std::string r2 = server.call("{\"id\":\"x\",\"op\":\"fly\"}");
  EXPECT_EQ(error_code(r2), "InvalidInput");
  EXPECT_EQ(parsed(r2).find("id")->as_string("id"), "x");
  const Server::Stats s = server.stats();
  EXPECT_EQ(s.invalid, 2);
  EXPECT_EQ(s.admitted, 0);
  EXPECT_EQ(s.received, 2);
}

TEST(ServeServer, UnstableLoadIsAnErrorResponseNotACrash) {
  Server server(serial_opts());
  const std::string r = server.call(analyze_line("u", 1.6, 0.9));
  EXPECT_FALSE(response_ok(r));
  EXPECT_EQ(error_code(r), "Unstable");
}

TEST(ServeServer, OnlySolverTransientsEscalate) {
  EXPECT_TRUE(serve::transient(ErrorCode::kNotConverged));
  EXPECT_TRUE(serve::transient(ErrorCode::kIllConditioned));
  EXPECT_FALSE(serve::transient(ErrorCode::kInvalidInput));
  EXPECT_FALSE(serve::transient(ErrorCode::kUnstable));
  EXPECT_FALSE(serve::transient(ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(serve::transient(ErrorCode::kCancelled));
  EXPECT_FALSE(serve::transient(ErrorCode::kOverloaded));
}

TEST(ServeServer, QueueDepthShedsWithRetryAfterHint) {
  ServerOptions o = serial_opts();
  o.queue_depth = 1;
  o.shed_retry_after_ms = 10.0;
  Server server(o);
  auto first = server.submit(analyze_line("q1", 0.5, 0.5));
  auto second = server.submit(analyze_line("q2", 0.5, 0.5));  // over depth
  ASSERT_TRUE(second->done());  // shed responses resolve immediately
  const std::string shed = second->wait();
  EXPECT_EQ(error_code(shed), "Overloaded");
  // hint = base * (1 + pending depth) = 10 * 2.
  EXPECT_DOUBLE_EQ(parsed(shed).find("error")->find("retry_after_ms")
                       ->as_number("retry_after_ms"),
                   20.0);
  while (server.process_one()) {
  }
  EXPECT_TRUE(response_ok(first->wait()));
  const Server::Stats s = server.stats();
  EXPECT_EQ(s.admitted, 1);
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.completed, 1);
}

TEST(ServeServer, ShedRetryAfterBaseMustBeFiniteAndNonNegative) {
  // A negative or NaN base would drop retry_after_ms from every shed
  // response, so the constructor rejects it like a NaN timeout.
  for (const double base : {-5.0, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    ServerOptions o = serial_opts();
    o.shed_retry_after_ms = base;
    EXPECT_THROW(Server server(o), InvalidInputError) << base;
  }
  ServerOptions zero = serial_opts();
  zero.shed_retry_after_ms = 0.0;  // a zero hint is still a hint
  EXPECT_NO_THROW(Server server(zero));
}

TEST(ServeServer, CostCapShedsExpensiveWork) {
  ServerOptions o = serial_opts();
  o.max_inflight_cost = 10.0;
  Server server(o);
  // 32-point sweep costs 32 > 10: shed on cost although the queue is empty.
  const std::string r = server.call(
      "{\"id\":\"s\",\"op\":\"sweep\",\"axis\":\"rho_s\",\"from\":0.1,"
      "\"to\":0.5,\"points\":32,\"rho_l\":0.5}");
  EXPECT_EQ(error_code(r), "Overloaded");
  // Cost 0 pings always fit.
  EXPECT_TRUE(response_ok(server.call("{\"id\":\"p\",\"op\":\"ping\"}")));
}

TEST(ServeServer, ZeroTimeoutIsDeterministicDeadlineExceeded) {
  Server server(serial_opts());
  const std::string r = server.call(analyze_line("t", 0.5, 0.5, ",\"timeout_ms\":0"));
  EXPECT_EQ(error_code(r), "DeadlineExceeded");
  // The message is normalized so responses stay bit-deterministic.
  EXPECT_NE(r.find("request budget exhausted"), std::string::npos);
}

TEST(ServeServer, UnverifiedSolvesAreNeverCached) {
  Server server(serial_opts());
  EXPECT_TRUE(response_ok(
      server.call(analyze_line("n1", 0.5, 0.5, ",\"verify\":\"none\""))));
  EXPECT_TRUE(response_ok(
      server.call(analyze_line("n2", 0.5, 0.5, ",\"verify\":\"none\""))));
  const SolverCache::Stats s = server.cache_stats();
  EXPECT_EQ(s.inserts, 0);
  EXPECT_EQ(s.hits, 0);
}

TEST(ServeServer, SweepAndSimulateRoundTrip) {
  Server server(serial_opts());
  const std::string sw = server.call(
      "{\"id\":\"sw\",\"op\":\"sweep\",\"axis\":\"rho_s\",\"from\":0.2,"
      "\"to\":0.4,\"points\":3,\"rho_l\":0.5}");
  ASSERT_TRUE(response_ok(sw)) << sw;
  EXPECT_EQ(parsed(sw).find("result")->find("rows")->as_array("rows").size(), 3u);
  const std::string sim = server.call(
      "{\"id\":\"sim\",\"op\":\"simulate\",\"rho_s\":0.5,\"rho_l\":0.5,"
      "\"completions\":2000,\"replications\":2,\"seed\":7}");
  ASSERT_TRUE(response_ok(sim)) << sim;
  // Simulations replay bit-identically from the seed.
  EXPECT_EQ(server.call(
                "{\"id\":\"sim\",\"op\":\"simulate\",\"rho_s\":0.5,\"rho_l\":0.5,"
                "\"completions\":2000,\"replications\":2,\"seed\":7}"),
            sim);
}

// 2e6 completions x 32 replications: unbounded, a run of seconds (the
// largest the schema allows under the default cost cap).
const char* const kLongSimulate =
    "{\"id\":\"long\",\"op\":\"simulate\",\"rho_s\":0.9,\"rho_l\":0.5,"
    "\"completions\":2000000,\"replications\":32";

double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(ServeServer, SimulateHonorsItsTimeout) {
  Server server(serial_opts());
  const auto t0 = std::chrono::steady_clock::now();
  const std::string r = server.call(std::string(kLongSimulate) + ",\"timeout_ms\":20}");
  EXPECT_LT(elapsed_s(t0), 1.0);
  EXPECT_EQ(error_code(r), "DeadlineExceeded") << r;
}

// --- Server: drain protocol ------------------------------------------------

TEST(ServeDrain, QueuedWorkIsAnsweredCancelled) {
  Server server(serial_opts());
  auto t1 = server.submit(analyze_line("d1", 0.5, 0.5));
  auto t2 = server.submit(analyze_line("d2", 0.5, 0.5));
  server.drain();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(error_code(t1->wait()), "Cancelled");
  EXPECT_EQ(error_code(t2->wait()), "Cancelled");
  EXPECT_NE(t1->wait().find("request cancelled"), std::string::npos);
  // Post-drain submissions are shed, and every admitted request was
  // accounted for: admitted == completed + cancelled.
  EXPECT_EQ(error_code(server.call(analyze_line("d3", 0.5, 0.5))), "Overloaded");
  const Server::Stats s = server.stats();
  EXPECT_EQ(s.received, 3);
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.cancelled, 2);
  EXPECT_EQ(s.completed, 0);
}

TEST(ServeDrain, DrainIsIdempotentAndThreadedDrainCompletes) {
  ServerOptions o;
  o.workers = 2;
  o.drain_timeout_ms = 5000.0;
  Server server(o);
  std::vector<std::shared_ptr<Ticket>> tickets;
  for (int i = 0; i < 8; ++i)
    tickets.push_back(server.submit(analyze_line(numbered("w", i), 0.4, 0.4)));
  server.drain();
  server.drain();  // idempotent
  std::int64_t answered = 0;
  for (auto& t : tickets) {
    const std::string& r = t->wait();  // every admitted request resolves
    answered += response_ok(r) || error_code(r) == "Cancelled" ? 1 : 0;
  }
  EXPECT_EQ(answered, 8);
  const Server::Stats s = server.stats();
  EXPECT_EQ(s.admitted, 8);
  EXPECT_EQ(s.completed + s.cancelled, 8);
}

TEST(ServeDrain, DrainCancelsARunningSimulate) {
  ServerOptions o;
  o.workers = 1;
  o.request_timeout_ms = 0.0;
  o.drain_timeout_ms = 10.0;
  Server server(o);
  auto t = server.submit(std::string(kLongSimulate) + "}");
  while (server.pending() > 0) std::this_thread::yield();  // a worker took it
  const auto t0 = std::chrono::steady_clock::now();
  server.drain();
  EXPECT_LT(elapsed_s(t0), 1.0);
  EXPECT_EQ(error_code(t->wait()), "Cancelled");
  EXPECT_EQ(server.stats().cancelled, 1);
}

// --- Soak: concurrent mixed traffic, bit-identical across worker counts ----

std::vector<std::string> soak_traffic(int n) {
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::string id = numbered("r", i);
    switch (i % 10) {
      case 0:
        lines.push_back("{\"id\":\"" + id + "\",\"op\":\"ping\"}");
        break;
      case 1:  // hostile: not JSON at all
        lines.push_back("!!! line " + std::to_string(i) + " !!!");
        break;
      case 2:  // hostile: schema violation (typoed field)
        lines.push_back("{\"id\":\"" + id + "\",\"op\":\"analyze\",\"rho_i\":0.5}");
        break;
      case 3:  // already-expired budget: deterministic DeadlineExceeded
        lines.push_back(analyze_line(id, 0.5, 0.5, ",\"timeout_ms\":0"));
        break;
      case 4:  // outside the stability region: taxonomy error, not a crash
        lines.push_back(analyze_line(id, 1.7, 0.8));
        break;
      case 5:
        lines.push_back(
            "{\"id\":\"" + id +
            "\",\"op\":\"sweep\",\"axis\":\"rho_l\",\"from\":0.2,\"to\":0.6,"
            "\"points\":3,\"rho_s\":0.3}");
        break;
      default: {  // valid analyzes over a small config family (cache traffic)
        const double rho_s = 0.30 + 0.01 * (i % 25);
        lines.push_back(analyze_line(id, rho_s, 0.5));
        break;
      }
    }
  }
  return lines;
}

// Run `lines` through a server with `workers` workers and `clients`
// submitting threads; returns one response per line, in line order.
std::vector<std::string> run_soak(const std::vector<std::string>& lines, int workers,
                                  int clients, Server::Stats* stats_out) {
  ServerOptions o;
  o.workers = workers;
  o.queue_depth = lines.size() + 1;  // the soak proves balance, not shedding
  o.max_inflight_cost = 1e9;
  o.request_timeout_ms = 0.0;
  Server server(o);
  std::vector<std::shared_ptr<Ticket>> tickets(lines.size());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c); i < lines.size();
           i += static_cast<std::size_t>(clients))
        tickets[i] = server.submit(lines[i]);
    });
  for (std::thread& t : threads) t.join();
  if (workers == 0)
    while (server.process_one()) {
    }
  std::vector<std::string> responses;
  responses.reserve(lines.size());
  for (auto& t : tickets) responses.push_back(t->wait());
  server.drain();
  *stats_out = server.stats();
  return responses;
}

TEST(ServeSoak, MixedTrafficIsCrashFreeBalancedAndDeterministic) {
  const std::vector<std::string> lines = soak_traffic(500);
  Server::Stats serial{}, threaded{};
  const std::vector<std::string> want = run_soak(lines, 0, 1, &serial);
  const std::vector<std::string> got = run_soak(lines, 4, 4, &threaded);

  ASSERT_EQ(want.size(), lines.size());
  ASSERT_EQ(got.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // Every request gets exactly one well-formed JSON response...
    const JsonValue v = parse_json(got[i]);
    ASSERT_TRUE(v.is_object()) << got[i];
    ASSERT_NE(v.find("ok"), nullptr) << got[i];
    // ...and the bytes match the serial run: worker count is invisible.
    EXPECT_EQ(got[i], want[i]) << "line " << i << ": " << lines[i];
  }
  for (const Server::Stats& s : {serial, threaded}) {
    EXPECT_EQ(s.received, static_cast<std::int64_t>(lines.size()));
    EXPECT_EQ(s.received, s.admitted + s.shed + s.invalid);
    EXPECT_EQ(s.admitted, s.completed + s.cancelled);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.cancelled, 0);
    EXPECT_EQ(s.invalid, static_cast<std::int64_t>(lines.size()) / 5);  // cases 1+2
  }
}

// --- Chaos: fault-injected serve paths (`ctest -L chaos`) ------------------

class ServeChaos : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(ServeChaos, TransientDispatchFaultDegradesThroughLadderAndSkipsCache) {
  Server server(serial_opts());
  fault::arm(fault::parse_arm_spec("serve.dispatch.run:1:throw:NotConverged"));
  const std::string r = server.call(analyze_line("c2", 0.5, 0.5));
  ASSERT_TRUE(response_ok(r)) << r;
  const JsonValue v = parsed(r);
  EXPECT_TRUE(v.find("degraded")->as_bool("degraded"));
  EXPECT_EQ(v.find("rung")->as_string("rung"), "truncated");
  // One pass: the failed attempt goes straight to the ladder, unretried.
  EXPECT_EQ(fault::hits("serve.dispatch.run"), 1);
  EXPECT_EQ(v.find("retries"), nullptr);
  const auto& trail = v.find("attempts")->as_array("attempts");
  ASSERT_EQ(trail.size(), 2u);
  EXPECT_EQ(trail[0].as_string("attempt").rfind("attempt 1: NotConverged — ", 0), 0u);
  EXPECT_EQ(trail[1].as_string("attempt"), "truncated: ok");
  EXPECT_EQ(server.stats().degraded, 1);
  // A degraded answer must never enter the memo-cache.
  EXPECT_EQ(server.cache_stats().inserts, 0);
  // And it must not poison later exact solves: the same request now yields
  // a fresh, cacheable exact answer.
  const std::string clean = server.call(analyze_line("c3", 0.5, 0.5));
  ASSERT_TRUE(response_ok(clean)) << clean;
  EXPECT_EQ(parsed(clean).find("degraded"), nullptr);
  EXPECT_EQ(server.cache_stats().inserts, 1);
}

TEST_F(ServeChaos, NoDegradeOptionTurnsTheFailureIntoAnError) {
  ServerOptions o = serial_opts();
  o.allow_degraded = false;
  Server server(o);
  fault::arm(fault::parse_arm_spec("serve.dispatch.run:1:throw:NotConverged"));
  const std::string r = server.call(analyze_line("c4", 0.5, 0.5));
  EXPECT_EQ(error_code(r), "NotConverged");
  EXPECT_EQ(server.stats().degraded, 0);
}

TEST_F(ServeChaos, FaultedCacheInsertNeverPoisonsTheCache) {
  Server server(serial_opts());
  fault::arm(fault::parse_arm_spec("serve.cache.insert:1:throw:NotConverged"));
  const std::string r1 = server.call(analyze_line("c5", 0.5, 0.5));
  ASSERT_TRUE(response_ok(r1)) << r1;  // the insert failure is invisible
  EXPECT_EQ(server.cache_stats().inserts, 0);
  // The single-shot fault is spent; the identical request re-solves,
  // byte-identically, and this time the insert lands.
  const std::string r2 = server.call(analyze_line("c5", 0.5, 0.5));
  EXPECT_EQ(r2, r1);
  EXPECT_EQ(server.cache_stats().inserts, 1);
  EXPECT_EQ(server.cache_stats().misses, 2);
}

// An answer from the simulation rung reports its precision under the names
// a simulate response uses, with the values the same simulate request gets.
TEST_F(ServeChaos, SimulationRungAnswerCarriesItsCi) {
  Server server(serial_opts());
  fault::arm(fault::parse_arm_spec("serve.dispatch.run:1:throw:NotConverged"));
  fault::arm(fault::parse_arm_spec("analysis.truncated.solve:1:throw:NotConverged"));
  const JsonValue degraded = parsed(server.call(analyze_line("c8", 0.5, 0.5)));
  ASSERT_TRUE(degraded.find("ok")->as_bool("ok"));
  EXPECT_EQ(degraded.find("rung")->as_string("rung"), "simulation");
  const JsonValue simulated = parsed(server.call(
      "{\"id\":\"c9\",\"op\":\"simulate\",\"rho_s\":0.5,\"rho_l\":0.5,\"mean_s\":1,"
      "\"mean_l\":1,\"scv_l\":1,\"completions\":20000,\"replications\":2}"));
  ASSERT_TRUE(simulated.find("ok")->as_bool("ok"));
  const JsonValue* got = degraded.find("result");
  const JsonValue* want = simulated.find("result");
  for (const char* key : {"ci95_short", "ci95_long", "replications"}) {
    SCOPED_TRACE(key);
    ASSERT_NE(got->find(key), nullptr);
    EXPECT_EQ(got->find(key)->as_number(key), want->find(key)->as_number(key));
  }
  EXPECT_GT(got->find("ci95_short")->as_number("ci95_short"), 0.0);
  EXPECT_EQ(got->find("replications")->as_number("replications"), 2.0);
}

TEST_F(ServeChaos, ForcedAdmissionShed) {
  Server server(serial_opts());
  fault::arm(fault::parse_arm_spec("serve.admission.shed:1:throw:Overloaded"));
  const std::string r = server.call("{\"id\":\"c6\",\"op\":\"ping\"}");
  EXPECT_EQ(error_code(r), "Overloaded");
  ASSERT_NE(parsed(r).find("error")->find("retry_after_ms"), nullptr);
  EXPECT_EQ(server.stats().shed, 1);
  // The site is single-shot: service resumes.
  EXPECT_TRUE(response_ok(server.call("{\"id\":\"c7\",\"op\":\"ping\"}")));
}

}  // namespace
}  // namespace csq
