// Metrics wire surface: get_metrics/metrics_ok round-trips (every field,
// including slow-request stage breakdowns), rejection of truncated and
// corrupt bodies, and a live loopback server answering metrics scrapes
// mid-ingest without blocking the writers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ms/synthetic.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "util/crc32.hpp"

namespace spechd::net {
namespace {

/// Decodes exactly one frame from `bytes`, asserting success.
frame_view decode_one(const std::string& bytes) {
  frame_view frame;
  const auto status =
      decode_frame(bytes.data(), bytes.size(), k_default_max_frame_bytes, frame);
  EXPECT_EQ(status, decode_status::ok);
  return frame;
}
/// A frame_view points into its buffer; decoding a temporary would dangle.
frame_view decode_one(std::string&&) = delete;

/// A snapshot exercising every wire field: counters, a signed gauge,
/// histograms with and without buckets, and slow entries with stages.
wire_metrics sample_metrics() {
  wire_metrics m;
  m.snapshot.counters = {{"spechd_test_a_total", 42}, {"spechd_test_b_total", 0}};
  m.snapshot.gauges = {{"spechd_test_depth", -7}};
  obs::histogram_sample h;
  h.name = "spechd_test_latency_ns";
  h.unit = "ns";
  h.count = 3;
  h.sum = 1234567;
  h.buckets = {{0, 0, 1}, {4096, 4351, 2}};
  m.snapshot.histograms = {h, {"spechd_test_empty_ns", "ns", 0, 0, {}}};
  obs::slow_request slow;
  slow.kind = "ingest";
  slow.seq = 99;
  slow.total_ns = 50'000'000;
  slow.stages = {{obs::stage::net_parse, 1000}, {obs::stage::enqueue, 49'000'000}};
  m.slow = {slow, {"query", 100, 12'000'000, {{obs::stage::merge, 5}}}};
  return m;
}

TEST(NetMetrics, RequestAndResponseRoundTrip) {
  std::string req;
  encode_metrics_request(req, 11);
  const auto req_frame = decode_one(req);
  EXPECT_EQ(req_frame.type, msg_type::get_metrics);
  EXPECT_EQ(req_frame.request_id, 11u);

  const auto metrics = sample_metrics();
  std::string resp;
  encode_metrics_response(resp, 11, metrics);
  const auto resp_frame = decode_one(resp);
  EXPECT_EQ(resp_frame.type, msg_type::metrics_ok);
  wire_metrics round;
  ASSERT_TRUE(parse_metrics_response(resp_frame, round));
  EXPECT_EQ(round, metrics);
}

TEST(NetMetrics, EmptySnapshotRoundTrips) {
  std::string resp;
  encode_metrics_response(resp, 5, wire_metrics{});
  wire_metrics round;
  ASSERT_TRUE(parse_metrics_response(decode_one(resp), round));
  EXPECT_EQ(round, wire_metrics{});
}

TEST(NetMetrics, TruncatedBodiesAreRejectedAtEveryLength) {
  // Chop the valid payload at every length: a parser that reads past the
  // end of any truncation is a heap overread waiting for ASan.
  std::string resp;
  encode_metrics_response(resp, 7, sample_metrics());
  const auto full = decode_one(resp);
  for (std::uint32_t len = 0; len < full.body_bytes; ++len) {
    frame_view truncated = full;
    truncated.body_bytes = len;
    wire_metrics out;
    EXPECT_FALSE(parse_metrics_response(truncated, out)) << "length " << len;
  }
}

TEST(NetMetrics, HostileCountsAndBadStagesAreRejected) {
  std::string resp;
  encode_metrics_response(resp, 7, sample_metrics());
  const auto full = decode_one(resp);
  const char* body = full.body;
  const std::size_t body_size = full.body_bytes;

  // Declare 2^30 counters in a tiny body: the parser must bound every
  // count against the bytes actually present.
  {
    std::string mutated(body, body_size);
    const std::uint32_t huge = 1u << 30;
    std::memcpy(mutated.data(), &huge, sizeof(huge));
    frame_view hacked = full;
    hacked.body = mutated.data();
    wire_metrics out;
    EXPECT_FALSE(parse_metrics_response(hacked, out));
  }

  // Corrupt a slow-request stage id to an out-of-range value: the last
  // stage byte in the payload is 9 bytes from the end of the last stage
  // record (stage u8 + ns u64), which itself ends the body.
  {
    std::string mutated(body, body_size);
    mutated[body_size - 9] = static_cast<char>(obs::k_stage_max + 1);
    frame_view hacked = full;
    hacked.body = mutated.data();
    wire_metrics out;
    EXPECT_FALSE(parse_metrics_response(hacked, out));
  }

  // Trailing garbage after a well-formed body is also malformed.
  {
    std::string mutated(body, body_size);
    mutated += '\0';
    frame_view hacked = full;
    hacked.body = mutated.data();
    hacked.body_bytes = static_cast<std::uint32_t>(mutated.size());
    wire_metrics out;
    EXPECT_FALSE(parse_metrics_response(hacked, out));
  }
}

TEST(NetMetrics, LiveServerAnswersMetricsMidIngestWithoutBlockingWriters) {
  ms::synthetic_config data_config;
  data_config.peptide_count = 24;
  data_config.spectra_per_peptide_mean = 4.0;
  data_config.seed = 31;
  const auto stream = ms::generate_dataset(data_config).spectra;

  serve::serve_config sc;
  sc.pipeline.encoder.dim = 1024;
  sc.pipeline.threads = 1;
  sc.shards = 2;
  sc.queue_capacity = 8;
  serve::clustering_service service(sc);
  server srv(service, server_config{});

  // Producer streams small batches while the main thread scrapes: the
  // scrape must return promptly every time (snapshots are relaxed sums —
  // no locks shared with the writers) and never perturb the ingest.
  std::atomic<bool> done{false};
  std::thread producer([&] {
    client cli("127.0.0.1", srv.port());
    for (std::size_t i = 0; i + 8 <= stream.size(); i += 8) {
      const std::vector<ms::spectrum> batch(
          stream.begin() + static_cast<std::ptrdiff_t>(i),
          stream.begin() + static_cast<std::ptrdiff_t>(i) + 8);
      for (;;) {
        if (cli.ingest(batch).accepted) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    done = true;
  });

  client scraper("127.0.0.1", srv.port());
  std::size_t scrapes = 0;
  while (!done.load()) {
    const auto m = scraper.metrics();
    ++scrapes;
    // Mid-ingest scrapes see a consistent prefix of the stream: the
    // ingest counter is monotone and histograms carry matching samples.
    if (const auto* c = m.snapshot.find_counter("spechd_ingest_records_total")) {
      EXPECT_GE(c->value, 0u);
    }
  }
  producer.join();
  service.drain();
  EXPECT_GE(scrapes, 1u);

  const auto final_metrics = scraper.metrics();
  const auto* ingested =
      final_metrics.snapshot.find_counter("spechd_ingest_records_total");
  ASSERT_NE(ingested, nullptr);
  EXPECT_GT(ingested->value, 0u);
  const auto* batches =
      final_metrics.snapshot.find_counter("spechd_ingest_batches_total");
  ASSERT_NE(batches, nullptr);
  EXPECT_GT(batches->value, 0u);
  // The per-stage ingest histograms saw traffic too (armed by default).
  const auto* enqueue =
      final_metrics.snapshot.find_histogram("spechd_ingest_enqueue_ns");
  ASSERT_NE(enqueue, nullptr);
  EXPECT_GT(enqueue->count, 0u);
  const auto* net_req =
      final_metrics.snapshot.find_histogram("spechd_net_ingest_request_ns");
  ASSERT_NE(net_req, nullptr);
  EXPECT_GT(net_req->count, 0u);
}

}  // namespace
}  // namespace spechd::net
