/// Serving layer (src/serve): wire protocol hostile-input policy (typed
/// failure BEFORE size-proportional allocation), request/response JSON
/// round-trips, result-cache LRU/byte-budget/counter semantics, the
/// deadline -> start-budget mapping as a pure function, scheduler
/// admission control and single-flight coalescing, and end-to-end daemon
/// round-trips over a real unix socket (including concurrent clients and
/// a malformed request that must not kill the connection).
///
/// Every fixture name starts with "Serve" so CI's TSAN job picks these up
/// alongside the other concurrency suites.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/planted.hpp"
#include "hypergraph/io.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace fhp {
namespace {

using serve::CacheKey;
using serve::FrameDecoder;
using serve::FrameLimits;
using serve::ProtocolError;

/// Unique socket path per test (unix socket paths are capped at ~108
/// bytes, so these live directly in the temp root).
std::string test_socket_path() {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("fhp_test_serve_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock"))
      .string();
}

/// Raw unix-socket connection to \p path (-1 on failure).
int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Small deterministic instance; distinct seeds give distinct
/// fingerprints.
Hypergraph small_instance(std::uint64_t seed) {
  PlantedParams params;
  params.num_vertices = 60;
  params.num_edges = 90;
  params.planted_cut = 4;
  return planted_instance(params, seed).hypergraph;
}

std::string hmetis_text(const Hypergraph& h) {
  std::ostringstream out;
  write_hmetis(out, h);
  return std::move(out).str();
}

// ---------------------------------------------------------------------------
// Protocol framing
// ---------------------------------------------------------------------------

TEST(ServeProtocol, FrameEncodeDecodeRoundTrip) {
  const std::string payload = R"({"op": "ping", "id": 7})";
  const std::string frame = serve::encode_frame(payload);
  ASSERT_EQ(frame.size(), serve::kFrameHeaderBytes + payload.size());
  FrameDecoder decoder;
  // Feed byte-by-byte: the decoder must reassemble across arbitrary
  // chunking.
  for (const char c : frame) decoder.feed(std::string_view(&c, 1));
  const auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_FALSE(decoder.next().has_value());
  decoder.finish();  // clean boundary: no throw
}

TEST(ServeProtocol, OversizedHeaderFailsBeforeAllocation) {
  // A forged 4 GiB length prefix must cost a typed error after 4 header
  // bytes — never a buffer sized to the claim.
  FrameDecoder decoder(FrameLimits{1 << 20});
  const unsigned char hostile[4] = {0xff, 0xff, 0xff, 0xff};
  // feed() validates the header the moment its 4 bytes are visible.
  EXPECT_THROW(decoder.feed(std::string_view(
                   reinterpret_cast<const char*>(hostile), 4)),
               ProtocolError);
  // The no-allocation policy, observable: only the 4 header bytes were
  // ever buffered.
  EXPECT_LE(decoder.buffered_bytes(), serve::kFrameHeaderBytes);
}

TEST(ServeProtocol, HeaderValidatedAsSoonAsVisible) {
  // The hostile header is rejected even when payload bytes follow it in
  // the same chunk — feed() must not buffer past a bad header.
  FrameDecoder decoder(FrameLimits{64});
  std::string chunk;
  const unsigned char hostile[4] = {0xff, 0xff, 0xff, 0x7f};
  chunk.assign(reinterpret_cast<const char*>(hostile), 4);
  chunk += std::string(256, 'x');
  EXPECT_THROW(decoder.feed(chunk), ProtocolError);
  EXPECT_LE(decoder.buffered_bytes(), serve::kFrameHeaderBytes);
}

TEST(ServeProtocol, ZeroLengthFrameRejected) {
  FrameDecoder decoder;
  EXPECT_THROW(decoder.feed(std::string_view("\0\0\0\0", 4)),
               ProtocolError);
}

TEST(ServeProtocol, TruncatedStreamFailsTyped) {
  // Peer dies mid-payload: finish() must throw, not silently drop bytes.
  const std::string frame = serve::encode_frame("{\"op\": \"ping\"}");
  FrameDecoder decoder;
  decoder.feed(std::string_view(frame).substr(0, frame.size() - 3));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_THROW(decoder.finish(), ProtocolError);
}

TEST(ServeProtocol, EncodeRejectsOversizedAndEmptyPayloads) {
  EXPECT_THROW(static_cast<void>(serve::encode_frame("")), ProtocolError);
  const FrameLimits tiny{16};
  EXPECT_THROW(
      static_cast<void>(serve::encode_frame(std::string(17, 'x'), tiny)),
      ProtocolError);
}

TEST(ServeProtocol, GarbageJsonPayloadFailsTyped) {
  EXPECT_THROW(static_cast<void>(serve::parse_request("{oops")),
               ProtocolError);
  EXPECT_THROW(static_cast<void>(serve::parse_request("[1, 2, 3]")),
               ProtocolError);
  EXPECT_THROW(
      static_cast<void>(serve::parse_request(R"({"op": "conquer"})")),
      ProtocolError);
  EXPECT_THROW(static_cast<void>(serve::parse_response("not json")),
               ProtocolError);
}

TEST(ServeProtocol, RequestJsonRoundTrip) {
  serve::Request request;
  request.op = serve::Request::Op::kPartition;
  request.id = 42;
  request.hypergraph = "3 4\n1 2\n2 3\n3 4\n";
  request.options.seed = 9;
  request.options.starts = 17;
  request.options.engine = ml::EngineChoice::kMultilevel;
  request.options.refiner = ml::RefinerChoice::kFlowFm;
  request.options.deadline_us = 1234;
  request.options.assume_start_cost_us = 55;

  const serve::Request parsed = serve::parse_request(to_json(request));
  EXPECT_EQ(parsed.op, serve::Request::Op::kPartition);
  EXPECT_EQ(parsed.id, 42);
  EXPECT_EQ(parsed.hypergraph, request.hypergraph);
  EXPECT_EQ(parsed.options.seed, 9U);
  EXPECT_EQ(parsed.options.starts, 17);
  EXPECT_EQ(parsed.options.engine, ml::EngineChoice::kMultilevel);
  EXPECT_EQ(parsed.options.refiner, ml::RefinerChoice::kFlowFm);
  EXPECT_EQ(parsed.options.deadline_us, 1234);
  EXPECT_EQ(parsed.options.assume_start_cost_us, 55);
}

TEST(ServeProtocol, ResponseJsonRoundTrip) {
  serve::Response response;
  response.id = 7;
  response.status = "ok";
  response.engine = "multilevel";
  response.levels = 3;
  response.cached = true;
  response.degraded = true;
  response.starts_used = 5;
  response.latency_us = 987;
  response.cut_weight = 12;
  response.cut_edges = 11;
  response.sides = {0, 1, 1, 0};
  response.stats_json = R"({"cache": {"hits": 3}})";

  const serve::Response parsed = serve::parse_response(to_json(response));
  EXPECT_EQ(parsed.id, 7);
  EXPECT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.engine, "multilevel");
  EXPECT_EQ(parsed.levels, 3);
  EXPECT_TRUE(parsed.cached);
  EXPECT_TRUE(parsed.degraded);
  EXPECT_EQ(parsed.starts_used, 5);
  EXPECT_EQ(parsed.latency_us, 987);
  EXPECT_EQ(parsed.cut_weight, 12);
  EXPECT_EQ(parsed.cut_edges, 11U);
  EXPECT_EQ(parsed.sides, response.sides);
  // stats round-trips as an equivalent document (formatting may differ).
  EXPECT_EQ(json::dump(json::parse(parsed.stats_json)),
            json::dump(json::parse(response.stats_json)));
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

ml::EngineResult result_with_sides(std::size_t n, std::uint8_t fill) {
  ml::EngineResult r;
  r.sides.assign(n, fill);
  return r;
}

CacheKey key_of(std::uint64_t a, std::uint64_t config) {
  return CacheKey{Hypergraph::Fingerprint{a, ~a}, config};
}

TEST(ServeCache, HitMissCountersAndRoundTrip) {
  serve::ResultCache cache(1 << 20);
  const CacheKey key = key_of(1, 2);
  EXPECT_FALSE(cache.lookup(key).has_value());
  // lookup() does not count the miss; admission does (scheduler.cpp).
  cache.note_miss();
  cache.insert(key, result_with_sides(8, 1));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sides, std::vector<std::uint8_t>(8, 1));
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1U);
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.entries, 1U);
}

TEST(ServeCache, EvictsLeastRecentlyUsedByBytes) {
  // Each entry costs sides.size() + 256 bytes; budget fits two entries of
  // 100 sides but not three.
  serve::ResultCache cache(2 * (100 + 256));
  cache.insert(key_of(1, 0), result_with_sides(100, 0));
  cache.insert(key_of(2, 0), result_with_sides(100, 0));
  // Touch key 1 so key 2 becomes the LRU victim.
  ASSERT_TRUE(cache.lookup(key_of(1, 0)).has_value());
  cache.insert(key_of(3, 0), result_with_sides(100, 0));
  EXPECT_TRUE(cache.lookup(key_of(1, 0)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2, 0)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3, 0)).has_value());
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1U);
  EXPECT_EQ(stats.entries, 2U);
  EXPECT_LE(stats.resident_bytes, 2U * (100 + 256));
}

TEST(ServeCache, OverBudgetEntryAndZeroBudgetAreDropped) {
  serve::ResultCache tiny(64);
  tiny.insert(key_of(1, 0), result_with_sides(100, 0));  // 356 bytes > 64
  EXPECT_FALSE(tiny.lookup(key_of(1, 0)).has_value());
  EXPECT_EQ(tiny.stats().entries, 0U);

  serve::ResultCache disabled(0);
  disabled.insert(key_of(1, 0), result_with_sides(1, 0));
  EXPECT_FALSE(disabled.lookup(key_of(1, 0)).has_value());
}

TEST(ServeCache, ConfigHashSeparatesEveryKnob) {
  const std::uint64_t base = serve::config_hash(
      1, 50, ml::EngineChoice::kAuto, ml::RefinerChoice::kFm);
  EXPECT_NE(base, serve::config_hash(2, 50, ml::EngineChoice::kAuto,
                                     ml::RefinerChoice::kFm));
  EXPECT_NE(base, serve::config_hash(1, 51, ml::EngineChoice::kAuto,
                                     ml::RefinerChoice::kFm));
  EXPECT_NE(base, serve::config_hash(1, 50, ml::EngineChoice::kFlat,
                                     ml::RefinerChoice::kFm));
  EXPECT_NE(base, serve::config_hash(1, 50, ml::EngineChoice::kAuto,
                                     ml::RefinerChoice::kFlowFm));
}

// ---------------------------------------------------------------------------
// Deadline mapping + plan construction (pure functions)
// ---------------------------------------------------------------------------

TEST(ServeScheduler, MapDeadlineZeroMeansFullBudget) {
  const serve::BudgetDecision d = serve::map_deadline(50, 0, 500);
  EXPECT_EQ(d.effective_starts, 50);
  EXPECT_FALSE(d.degraded);
}

TEST(ServeScheduler, MapDeadlineTruncatesAndFlags) {
  // Half of 50 ms at 5 ms/start affords 5 of the requested 50 starts.
  const serve::BudgetDecision d = serve::map_deadline(50, 50'000, 5'000);
  EXPECT_EQ(d.effective_starts, 5);
  EXPECT_TRUE(d.degraded);
}

TEST(ServeScheduler, MapDeadlineClampsToOneStartAndToRequest) {
  // A deadline too tight for even one start still runs one (degrade
  // quality, never return nothing).
  const serve::BudgetDecision floor = serve::map_deadline(50, 10, 5'000);
  EXPECT_EQ(floor.effective_starts, 1);
  EXPECT_TRUE(floor.degraded);
  // A generous deadline never exceeds the requested budget.
  const serve::BudgetDecision roomy =
      serve::map_deadline(8, 10'000'000, 10);
  EXPECT_EQ(roomy.effective_starts, 8);
  EXPECT_FALSE(roomy.degraded);
}

TEST(ServeScheduler, MakePlanDropsFlowRefinementWhenDegraded) {
  serve::RequestOptions options;
  options.seed = 3;
  options.starts = 50;
  options.refiner = ml::RefinerChoice::kFlowFm;
  const ml::PartitionPlan full =
      serve::make_plan(options, serve::BudgetDecision{50, false});
  EXPECT_EQ(full.refiner, ml::RefinerChoice::kFlowFm);
  EXPECT_EQ(full.algorithm1.num_starts, 50);
  EXPECT_EQ(full.algorithm1.seed, 3U);
  const ml::PartitionPlan degraded =
      serve::make_plan(options, serve::BudgetDecision{5, true});
  EXPECT_EQ(degraded.refiner, ml::RefinerChoice::kFm);
  EXPECT_EQ(degraded.algorithm1.num_starts, 5);
}

// ---------------------------------------------------------------------------
// Scheduler behavior
// ---------------------------------------------------------------------------

TEST(ServeSchedulerRun, ComputesCachesAndServesHits) {
  serve::SchedulerOptions options;
  options.threads = 2;
  serve::Scheduler scheduler(options);
  // Large enough for the V-cycle to coarsen at least one level.
  PlantedParams params;
  params.num_vertices = 400;
  params.num_edges = 600;
  params.planted_cut = 4;
  const Hypergraph h = planted_instance(params, 1).hypergraph;
  serve::RequestOptions flat;
  flat.starts = 8;
  serve::RequestOptions multilevel = flat;
  multilevel.engine = ml::EngineChoice::kMultilevel;
  multilevel.refiner = ml::RefinerChoice::kFlowFm;

  for (const serve::RequestOptions& request : {flat, multilevel}) {
    SCOPED_TRACE(ml::to_string(request.engine));
    Hypergraph first = h;
    const serve::ScheduleResult cold =
        scheduler.partition(std::move(first), request);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.cached);
    // The computed answer is partition_auto's, diagnostics included.
    const ml::EngineResult direct = ml::partition_auto(
        h, serve::make_plan(request, {request.starts, false}));
    EXPECT_EQ(cold.engine.sides, direct.sides);
    EXPECT_EQ(cold.engine.initial_cut_weight, direct.initial_cut_weight);
    EXPECT_EQ(cold.engine.refine_improvement, direct.refine_improvement);
    EXPECT_EQ(cold.engine.initial_cut_weight - cold.engine.refine_improvement,
              cold.engine.metrics.cut_weight);
    if (request.engine == ml::EngineChoice::kMultilevel) {
      // The V-cycle coarsened and refined: the diagnostics are nonzero.
      EXPECT_GE(cold.engine.levels, 1);
      EXPECT_GT(cold.engine.refine_improvement, 0);
    }

    Hypergraph second = h;
    const serve::ScheduleResult hot =
        scheduler.partition(std::move(second), request);
    ASSERT_TRUE(hot.ok());
    EXPECT_TRUE(hot.cached);
    // The cached answer carries every EngineResult field of the cold one.
    EXPECT_EQ(hot.engine.sides, cold.engine.sides);
    EXPECT_EQ(hot.engine.metrics.cut_weight, cold.engine.metrics.cut_weight);
    EXPECT_EQ(hot.engine.metrics.cut_edges, cold.engine.metrics.cut_edges);
    EXPECT_EQ(hot.engine.metrics.weight_imbalance,
              cold.engine.metrics.weight_imbalance);
    EXPECT_EQ(hot.engine.engine_used, cold.engine.engine_used);
    EXPECT_EQ(hot.engine.levels, cold.engine.levels);
    EXPECT_EQ(hot.engine.coarsest_vertices, cold.engine.coarsest_vertices);
    EXPECT_EQ(hot.engine.initial_cut_weight, cold.engine.initial_cut_weight);
    EXPECT_EQ(hot.engine.refine_improvement, cold.engine.refine_improvement);
  }

  const json::Value stats = json::parse(scheduler.stats_json());
  EXPECT_DOUBLE_EQ(stats.find_path({"cache", "hits"})->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(stats.find_path({"cache", "misses"})->as_number(), 2.0);
}

TEST(ServeSchedulerRun, QueueFullRejectsTyped) {
  serve::SchedulerOptions options;
  options.threads = 1;
  options.max_queue = 2;
  serve::Scheduler scheduler(options);
  scheduler.pause();  // admit but never dispatch: queue depth is exact

  std::vector<std::thread> submitters;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    submitters.emplace_back([&scheduler, seed] {
      serve::RequestOptions request;
      request.starts = 2;
      const serve::ScheduleResult r =
          scheduler.partition(small_instance(seed), request);
      EXPECT_TRUE(r.ok());
    });
  }
  // Wait until both jobs occupy the queue.
  for (;;) {
    const json::Value stats = json::parse(scheduler.stats_json());
    if (stats.find_path({"queue", "depth"})->as_number() >= 2.0) break;
    std::this_thread::yield();
  }
  serve::RequestOptions request;
  request.starts = 2;
  const serve::ScheduleResult rejected =
      scheduler.partition(small_instance(3), request);
  EXPECT_EQ(rejected.status, "rejected");
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);

  scheduler.resume();
  for (std::thread& t : submitters) t.join();
}

TEST(ServeSchedulerRun, SingleFlightCoalescesIdenticalRequests) {
  serve::SchedulerOptions options;
  options.threads = 2;
  serve::Scheduler scheduler(options);
  scheduler.pause();  // hold the leader in the queue while followers pile on

  const Hypergraph h = small_instance(5);
  constexpr int kWaiters = 4;
  std::vector<serve::ScheduleResult> results(kWaiters);
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      serve::RequestOptions request;
      request.starts = 4;
      Hypergraph copy = h;
      results[static_cast<std::size_t>(i)] =
          scheduler.partition(std::move(copy), request);
    });
  }
  // All four must be admitted (1 queued leader + 3 coalesced) before the
  // dispatcher runs, so exactly one execution is provable afterwards.
  for (;;) {
    const json::Value stats = json::parse(scheduler.stats_json());
    if (stats.find_path({"requests", "total"})->as_number() >=
        static_cast<double>(kWaiters)) {
      break;
    }
    std::this_thread::yield();
  }
  scheduler.resume();
  for (std::thread& t : waiters) t.join();

  int computed = 0;
  for (const serve::ScheduleResult& r : results) {
    ASSERT_TRUE(r.ok());
    if (!r.cached) ++computed;
    EXPECT_EQ(r.engine.sides, results[0].engine.sides);
  }
  EXPECT_EQ(computed, 1);
  const json::Value stats = json::parse(scheduler.stats_json());
  EXPECT_DOUBLE_EQ(stats.find_path({"cache", "misses"})->as_number(), 1.0);
  // Every follower lands as a hit whether it coalesced onto the flight or
  // arrived after completion and hit the cache — the split between the
  // two is timing-dependent, the sum is not.
  EXPECT_DOUBLE_EQ(stats.find_path({"cache", "hits"})->as_number(),
                   static_cast<double>(kWaiters - 1));
  EXPECT_LE(stats.find_path({"requests", "coalesced"})->as_number(),
            static_cast<double>(kWaiters - 1));
}

TEST(ServeSchedulerRun, StopRejectsQueuedJobs) {
  serve::SchedulerOptions options;
  options.threads = 1;
  serve::Scheduler scheduler(options);
  scheduler.pause();
  std::thread submitter([&scheduler] {
    serve::RequestOptions request;
    request.starts = 2;
    const serve::ScheduleResult r =
        scheduler.partition(small_instance(9), request);
    EXPECT_EQ(r.status, "rejected");
    EXPECT_NE(r.error.find("shutting down"), std::string::npos);
  });
  for (;;) {
    const json::Value stats = json::parse(scheduler.stats_json());
    if (stats.find_path({"queue", "depth"})->as_number() >= 1.0) break;
    std::this_thread::yield();
  }
  scheduler.stop();
  submitter.join();
}

TEST(ServeSchedulerRun, DeadlineRequestsBypassCacheAndDegrade) {
  serve::SchedulerOptions options;
  options.threads = 1;
  serve::Scheduler scheduler(options);
  const Hypergraph h = small_instance(11);
  serve::RequestOptions request;
  request.starts = 40;
  request.deadline_us = 10'000;
  request.assume_start_cost_us = 1'000;  // affords (10000/2)/1000 = 5 starts

  Hypergraph first = h;
  const serve::ScheduleResult a =
      scheduler.partition(std::move(first), request);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.degraded);
  EXPECT_FALSE(a.cached);
  EXPECT_EQ(a.starts_used, 5);
  // The identical deadline request recomputes: degraded answers are never
  // cached and never coalesce.
  Hypergraph second = h;
  const serve::ScheduleResult b =
      scheduler.partition(std::move(second), request);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b.cached);
  EXPECT_EQ(b.engine.sides, a.engine.sides);  // pure function of the request
  const json::Value stats = json::parse(scheduler.stats_json());
  EXPECT_DOUBLE_EQ(stats.find_path({"cache", "misses"})->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(stats.find_path({"requests", "degraded"})->as_number(),
                   2.0);
}

// ---------------------------------------------------------------------------
// End-to-end over a real socket
// ---------------------------------------------------------------------------

TEST(ServeEndToEnd, PingPartitionCacheStatsShutdown) {
  serve::ServerOptions options;
  options.socket_path = test_socket_path();
  options.scheduler.threads = 2;
  serve::Server server(options);
  server.start();

  serve::Client client;
  client.connect(options.socket_path);
  EXPECT_TRUE(client.ping().ok());

  const Hypergraph h = small_instance(21);
  const std::string text = hmetis_text(h);
  serve::RequestOptions request;
  request.starts = 8;
  const serve::Response cold = client.partition(text, request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.cached);
  EXPECT_EQ(cold.sides.size(), h.num_vertices());

  const serve::Response hot = client.partition(text, request);
  ASSERT_TRUE(hot.ok());
  EXPECT_TRUE(hot.cached);
  EXPECT_EQ(hot.sides, cold.sides);
  EXPECT_EQ(hot.cut_weight, cold.cut_weight);

  const serve::Response stats = client.stats();
  ASSERT_TRUE(stats.ok());
  const json::Value doc = json::parse(stats.stats_json);
  EXPECT_DOUBLE_EQ(doc.find_path({"cache", "hits"})->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(doc.find_path({"cache", "misses"})->as_number(), 1.0);

  EXPECT_TRUE(client.shutdown_server().ok());
  server.wait();  // returns once the shutdown request lands
  EXPECT_FALSE(std::filesystem::exists(options.socket_path));
}

TEST(ServeEndToEnd, MalformedRequestKeepsTheConnection) {
  serve::ServerOptions options;
  options.socket_path = test_socket_path();
  options.scheduler.threads = 1;
  serve::Server server(options);
  server.start();

  // Raw socket: the Client refuses to send garbage, so speak the framing
  // layer directly.
  const int fd = connect_raw(options.socket_path);
  ASSERT_GE(fd, 0);

  serve::write_frame(fd, "this is not json");
  const auto error_payload = serve::read_frame(fd);
  ASSERT_TRUE(error_payload.has_value());
  const serve::Response error = serve::parse_response(*error_payload);
  EXPECT_EQ(error.status, "error");
  EXPECT_FALSE(error.error.empty());

  // Same connection still serves valid requests.
  serve::Request ping;
  ping.op = serve::Request::Op::kPing;
  ping.id = 5;
  serve::write_frame(fd, serve::to_json(ping));
  const auto pong_payload = serve::read_frame(fd);
  ASSERT_TRUE(pong_payload.has_value());
  const serve::Response pong = serve::parse_response(*pong_payload);
  EXPECT_TRUE(pong.ok());
  EXPECT_EQ(pong.id, 5);
  ::close(fd);

  server.shutdown();
}

TEST(ServeEndToEnd, BadNetlistReturnsTypedErrorNotCrash) {
  serve::ServerOptions options;
  options.socket_path = test_socket_path();
  options.scheduler.threads = 1;
  serve::Server server(options);
  server.start();

  serve::Client client;
  client.connect(options.socket_path);
  const serve::Response bad =
      client.partition("definitely not hmetis\n", {});
  EXPECT_EQ(bad.status, "error");
  EXPECT_FALSE(bad.error.empty());
  // The daemon survives and keeps serving.
  EXPECT_TRUE(client.ping().ok());
  server.shutdown();
}

TEST(ServeEndToEnd, DeepChainUnderCorridorFlowKeepsTheDaemonUp) {
  // A 200,000-module two-pin chain (2.6 MB of hMETIS, far below the frame
  // cap) refined by corridor flow: the flow gadgets are chains tens of
  // thousands of levels deep, solved on a worker thread's stack.
  serve::ServerOptions options;
  options.socket_path = test_socket_path();
  options.scheduler.threads = 1;
  serve::Server server(options);
  server.start();

  constexpr int kModules = 200'000;
  std::string chain = std::to_string(kModules - 1);
  chain += ' ';
  chain += std::to_string(kModules);
  chain += '\n';
  for (int v = 1; v < kModules; ++v) {
    chain += std::to_string(v);
    chain += ' ';
    chain += std::to_string(v + 1);
    chain += '\n';
  }

  serve::Client client;
  client.connect(options.socket_path);
  serve::RequestOptions request;
  request.refiner = ml::RefinerChoice::kFlow;
  const serve::Response r = client.partition(chain, request);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.cut_weight, 1);
  EXPECT_EQ(r.sides.size(), static_cast<std::size_t>(kModules));
  EXPECT_TRUE(client.ping().ok());
  server.shutdown();
}

TEST(ServeEndToEnd, ShutdownReturnsAfterConnectionChurn) {
  // Connections that close while others are being accepted recycle fd
  // numbers. Tearing a connection down must never drop a newer
  // connection's entry from the daemon's live-fd list, or shutdown()
  // cannot unblock that connection and hangs joining its thread. Churn
  // short-lived connections while idle ones open in between, then shut
  // down with the idle ones still connected.
  serve::ServerOptions options;
  options.socket_path = test_socket_path();
  options.scheduler.threads = 1;
  serve::Server server(options);
  server.start();

  constexpr int kChurners = 3;
  constexpr int kCycles = 150;
  std::mutex idle_mutex;
  std::vector<int> idle;
  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&, c] {
      for (int i = 0; i < kCycles; ++i) {
        const int fd = connect_raw(options.socket_path);
        if (fd < 0) continue;
        if ((i + c) % 10 == 0) {
          const std::lock_guard<std::mutex> lock(idle_mutex);
          idle.push_back(fd);  // stays open and silent until the end
        } else {
          ::close(fd);
        }
      }
    });
  }
  for (std::thread& t : churners) t.join();
  ASSERT_FALSE(idle.empty());

  // One idle client proves the daemon still answers before shutdown.
  serve::Request ping;
  ping.op = serve::Request::Op::kPing;
  serve::write_frame(idle.front(), serve::to_json(ping));
  const auto pong = serve::read_frame(idle.front());
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(serve::parse_response(*pong).ok());

  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&] {
    server.shutdown();
    stopped.set_value();
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "shutdown() hung on an idle connection";
  // Closing the clients releases a hung shutdown so the test can finish.
  for (const int fd : idle) ::close(fd);
  stopper.join();
}

TEST(ServeEndToEnd, ConcurrentClientsGetConsistentAnswers) {
  serve::ServerOptions options;
  options.socket_path = test_socket_path();
  options.scheduler.threads = 2;
  options.scheduler.max_queue = 64;
  serve::Server server(options);
  server.start();

  const Hypergraph shared = small_instance(31);
  const std::string shared_text = hmetis_text(shared);
  constexpr int kClients = 4;
  constexpr int kRequestsEach = 3;
  std::vector<std::vector<serve::Response>> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client;
      client.connect(options.socket_path);
      for (int i = 0; i < kRequestsEach; ++i) {
        serve::RequestOptions request;
        request.starts = 6;
        responses[static_cast<std::size_t>(c)].push_back(
            client.partition(shared_text, request));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const serve::Response& reference = responses[0][0];
  ASSERT_TRUE(reference.ok());
  for (const auto& per_client : responses) {
    for (const serve::Response& r : per_client) {
      ASSERT_TRUE(r.ok());
      // Identical requests must get bit-identical answers no matter which
      // connection computed, coalesced, or hit the cache.
      EXPECT_EQ(r.sides, reference.sides);
      EXPECT_EQ(r.cut_weight, reference.cut_weight);
    }
  }
  server.shutdown();
}

}  // namespace
}  // namespace fhp
