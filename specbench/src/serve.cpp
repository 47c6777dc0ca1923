// Serving path: a journaled clustering_service behind net::server on
// loopback, fed by three closed-loop connections at once (one streams ingest
// batches, one sends queries, one sends OMS top-10 searches), then drained,
// dropped and rebuilt from its journal directory.
//
// The loop is closed because net::client and `spechd client` are blocking
// callers: each connection sends its next request when the previous answer
// is back. Admission control is set so it never sheds (a shed ingest would
// be a failed operation whose count depends on timing); backpressure from
// full shard queues then stalls the event loop, as it would in a service
// configured the same way.
#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/incremental.hpp"
#include "hdc/encoder.hpp"
#include "ms/mgf.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "preprocess/pipeline.hpp"
#include "serve/recovery.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/error.hpp"

namespace specbench {

namespace {

using namespace spechd;

constexpr std::size_t k_shards = 2;
constexpr std::size_t k_ingest_batch = 64;
constexpr std::uint32_t k_top_k = 10;
constexpr double k_tolerance_da = 2.5;
/// Read phases of a round: queries and searches beside the ingest stream,
/// then, after the drain, queries alone and searches alone for
/// k_read_seconds each, so each gated p50 times its own path only.
enum read_phase : int { k_beside_ingest = 0, k_queries_alone = 1, k_searches_alone = 2,
                        k_reads_done = 3 };
constexpr double k_read_seconds = 0.5;
/// In-process probes after the drain: how many spectra are queried and
/// searched (they are also the samples the output checks use).
constexpr std::size_t k_probes = 200;

serve::serve_config service_config(const std::string& journal_dir) {
  serve::serve_config config;
  config.pipeline.threads = 1;  // shard writers are the parallelism
  config.shards = k_shards;
  config.journal.dir = journal_dir;
  config.journal.fsync = true;
  return config;
}

net::server_config server_config() {
  net::server_config config;
  config.shed_queue_depth = std::size_t{1} << 30;  // never shed: see the file comment
  return config;
}

/// Spectra ingested in-process during a round's set-up; the other three
/// quarters are streamed over the wire, which is what ingest_spectra_per_s
/// times.
std::size_t preload_count(std::size_t stream_size) { return stream_size / 4; }

/// Deterministic spread of request indices over the stream.
std::size_t pick(std::size_t i, std::size_t salt, std::size_t n) {
  return (i * 7919 + salt) % n;
}

/// Runs one closed-loop connection through the phases of a round: beside
/// the ingest stream, then idle until its own phase `alone` comes, when it
/// runs alone. Each request is timed into latencies_us[0] (beside) or [1]
/// (alone), by the phase it started in.
template <typename Call>
void closed_loop(std::uint16_t port, const std::atomic<int>& phase, std::atomic<int>& ready,
                 int alone, std::vector<double> (&latencies_us)[2], std::uint64_t& failed,
                 Call call) {
  net::client cli("127.0.0.1", port);
  ready.fetch_add(1);
  while (ready.load() < 3) std::this_thread::yield();
  for (std::size_t i = 0;;) {
    const int p = phase.load();
    if (p == k_reads_done) break;
    if (p != k_beside_ingest && p != alone) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    const auto t0 = clock_type::now();
    try {
      call(cli, i++);
    } catch (const spechd::error& e) {
      ++failed;
      std::cerr << "request failed: " << e.what() << "\n";
      continue;
    }
    latencies_us[p == k_beside_ingest ? 0 : 1].push_back(seconds_since(t0) * 1e6);
  }
}

serve_round_result serve_round(const run_options& opts, std::span<const ms::spectrum> stream,
                               serve_outcome& kept) {
  const std::string journal = opts.dir + "/journal";
  std::filesystem::remove_all(journal);
  const auto config = service_config(journal);
  const std::size_t preload = preload_count(stream.size());
  serve_round_result r;

  auto service = std::make_unique<serve::clustering_service>(config);
  service->load_library(opts.dir + "/library.sphlib");
  for (std::size_t off = 0; off < preload; off += k_ingest_batch) {
    service->ingest({stream.begin() + static_cast<std::ptrdiff_t>(off),
                     stream.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(off + k_ingest_batch, preload))});
  }
  service->drain();

  {
    net::server srv(*service, server_config());
    const auto port = srv.port();
    std::atomic<int> phase{0};
    std::atomic<int> ready{0};
    const auto n = stream.size();

    std::thread queries([&] {
      closed_loop(port, phase, ready, k_queries_alone, r.query_us, r.query_failed,
                  [&](net::client& cli, std::size_t i) {
                    span s("net.query", i + 1);
                    (void)cli.query(stream[pick(i, 1, n)]);
                  });
    });
    std::thread searches([&] {
      closed_loop(port, phase, ready, k_searches_alone, r.search_us, r.search_failed,
                  [&](net::client& cli, std::size_t i) {
                    span s("net.search", i + 1);
                    (void)cli.search(stream[pick(i, 2, n)], k_top_k, k_tolerance_da);
                  });
    });
    std::thread sampler;
    if (tracing_on()) {
      // Sampled only in traced runs, so untraced runs carry no extra thread.
      sampler = std::thread([&] {
        while (phase.load() == k_beside_ingest) {
          r.queue_depth_max = std::max(r.queue_depth_max, service->queue_depth());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }

    {
      net::client cli("127.0.0.1", port);
      ready.fetch_add(1);
      while (ready.load() < 3) std::this_thread::yield();
      const auto start = clock_type::now();
      std::uint64_t request = 0;
      for (std::size_t off = preload; off < n; off += k_ingest_batch) {
        const std::vector<ms::spectrum> batch(
            stream.begin() + static_cast<std::ptrdiff_t>(off),
            stream.begin() + static_cast<std::ptrdiff_t>(std::min(off + k_ingest_batch, n)));
        ++r.ingests;
        try {
          span s("net.ingest", ++request);
          const auto ack = cli.ingest(batch);
          if (!ack.accepted || ack.count != batch.size()) {
            ++r.ingest_failed;
            std::cerr << "ingest not accepted: " << ack.message << "\n";
          }
        } catch (const spechd::error& e) {
          ++r.ingest_failed;
          std::cerr << "ingest failed: " << e.what() << "\n";
        }
      }
      {
        span s("net.drain");
        cli.drain();
      }
      r.ingest_s = seconds_since(start);
      for (const int p : {k_queries_alone, k_searches_alone}) {
        phase.store(p);
        std::this_thread::sleep_for(std::chrono::duration<double>(k_read_seconds));
      }
      phase.store(k_reads_done);
    }
    queries.join();
    searches.join();
    if (sampler.joinable()) sampler.join();
    kept.acks_ok = r.ingest_failed == 0;

    // Idle-service probes: wire round trip, then the in-process calls the
    // wire requests make, each on its own.
    net::client cli("127.0.0.1", port);
    for (std::size_t i = 0; i < k_probes; ++i) {
      span s("net.ping", i + 1);
      cli.ping();
      ++r.probes;
    }
  }

  const hdc::id_level_encoder encoder(config.pipeline.encoder,
                                      config.pipeline.preprocess.quantize.mz_bins,
                                      config.pipeline.preprocess.quantize.intensity_levels);
  const auto library = serve::spectral_library::load(opts.dir + "/library.sphlib");
  kept.nearest_checked = kept.nearest_zero = kept.unencodable = 0;
  kept.searches.clear();
  for (std::size_t i = 0; i < k_probes; ++i) {
    const std::size_t index = pick(i, 3, stream.size());
    const auto& s = stream[index];
    preprocess::preprocessed_batch prepared;
    hdc::hypervector hv;
    {
      span route("serve.route", i + 1);
      {
        span p("preprocess.run_preprocessing", i + 1);
        prepared = preprocess::run_preprocessing({s}, config.pipeline.preprocess);
      }
      if (!prepared.spectra.empty()) {
        span e("hdc.encode", i + 1);
        hv = encoder.encode(prepared.spectra.front());
      }
    }
    serve::query_result q;
    {
      span sq("serve.query", i + 1);
      q = service->query(s);
    }
    serve::search_result found;
    {
      span ss("serve.search", i + 1);
      found = service->search(s, k_top_k, k_tolerance_da);
    }
    r.probes += 2;
    if (prepared.spectra.empty()) {
      ++kept.unencodable;
      continue;
    }
    {
      span sl("serve.library_search", i + 1);
      const auto& qs = prepared.spectra.front();
      (void)library.search(hv, qs.precursor_mz, qs.precursor_charge, k_top_k,
                           k_tolerance_da);
      ++r.probes;
    }
    ++kept.nearest_checked;
    if (q.encodable && q.nearest_member == 0.0) ++kept.nearest_zero;
    kept.searches.push_back({index, std::move(found)});
  }

  const auto stats = service->stats();
  r.journal_mib = static_cast<double>(stats.journal_bytes) / (1024.0 * 1024.0);
  const auto states = service->export_states();
  kept.state_before = serve::canonical_state(states);
  kept.served_partition = serve::canonical_state(states, false);
  const auto identity = service->identity();
  service.reset();  // the drop: writers drain and join, files close

  if (tracing_on()) {
    // Replay alone, without building shards, writers or views around it.
    span s("serve.recover_journal_dir");
    const auto t0 = clock_type::now();
    const auto replayed = serve::recover_journal_dir(journal, config.pipeline, config.mode,
                                                     config.shards, identity);
    r.recover_replay_s = seconds_since(t0);
    if (replayed.shards.size() != config.shards) throw spechd::error("replay lost shards");
  }
  {
    span s("serve.recovery");
    const auto t0 = clock_type::now();
    service = std::make_unique<serve::clustering_service>(config);
    (void)service->query(stream.front());
    r.recovery_s = seconds_since(t0);
  }
  kept.state_after = serve::canonical_state(service->export_states());
  service.reset();
  std::filesystem::remove_all(journal);
  return r;
}

void add_p50(report& rep, const std::string& name, const std::vector<double>& us) {
  rep.metric(name, median(us), "us");
}

}  // namespace

double serve_setup_once(const run_options& opts) {
  const std::string journal = opts.dir + "/setup-journal";
  std::filesystem::remove_all(journal);
  double seconds = 0.0;
  {
    const auto t0 = clock_type::now();
    serve::clustering_service service(service_config(journal));
    service.load_library(opts.dir + "/library.sphlib");
    net::server srv(service, server_config());
    net::client cli("127.0.0.1", srv.port());
    cli.ping();
    seconds = seconds_since(t0);
  }
  std::filesystem::remove_all(journal);
  return seconds;
}

serve_phase::serve_phase(const run_options& opts, const workload& w,
                         const std::vector<ms::spectrum>& spectra)
    : opts_(opts),
      stream_(spectra.data(), std::min(spectra.size(), w.serve_spectra)) {
  kept_.spectra = stream_.size();
}

double serve_phase::round() {
  const auto t0 = clock_type::now();
  rounds_.push_back(serve_round(opts_, stream_, kept_));
  return seconds_since(t0);
}

void serve_phase::count_phases(report& rep) const {
  std::uint64_t ingests = 0, ingest_failed = 0, queries = 0, query_failed = 0, searches = 0,
                search_failed = 0, probes = 0;
  for (const auto& r : rounds_) {
    probes += r.probes;
    ingests += r.ingests;
    ingest_failed += r.ingest_failed;
    queries += r.query_us[0].size() + r.query_us[1].size() + r.query_failed;
    query_failed += r.query_failed;
    searches += r.search_us[0].size() + r.search_us[1].size() + r.search_failed;
    search_failed += r.search_failed;
  }
  const std::size_t preload = preload_count(stream_.size());
  rep.phase("serve.ingest", ingests, ingest_failed,
            std::to_string(rounds_.size()) + " rounds of " + std::to_string(preload) +
                " preloaded + " + std::to_string(stream_.size() - preload) +
                " streamed spectra; failed = shed, rejected or refused");
  rep.phase("serve.query", queries, query_failed, "wire query errors");
  rep.phase("serve.search", searches, search_failed, "wire OMS search errors");
  rep.phase("serve.probe", probes, 0,
            "pings, in-process queries, searches and library searches after the drain");
  rep.phase("serve.recovery", rounds_.size(), 0,
            "drop, then rebuild from the journal directory");
}

void serve_phase::report_rounds(report& rep) const {
  count_phases(rep);
  const auto streamed = static_cast<double>(stream_.size() - preload_count(stream_.size()));
  std::vector<double> ingest_rates, recovery_s;
  std::vector<double> query_us[2], search_us[2];
  for (const auto& r : rounds_) {
    ingest_rates.push_back(streamed / r.ingest_s);
    recovery_s.push_back(r.recovery_s);
    for (int p = 0; p < 2; ++p) {
      query_us[p].insert(query_us[p].end(), r.query_us[p].begin(), r.query_us[p].end());
      search_us[p].insert(search_us[p].end(), r.search_us[p].begin(), r.search_us[p].end());
    }
  }
  const auto tail = [](const std::string& what, const std::vector<double>& us) {
    // A percentile is a tail only with at least ten samples beyond it.
    std::cout << "serve: " << what << ": p50 " << median(us) << " us";
    if (us.size() >= 1000) std::cout << ", p99 " << percentile(us, 0.99) << " us";
    std::cout << " (n=" << us.size() << ")\n";
  };
  tail("wire query beside the ingest stream", query_us[0]);
  tail("wire search beside the ingest stream", search_us[0]);
  tail("wire query alone after the drain", query_us[1]);
  tail("wire search alone after the drain", search_us[1]);
  rep.metric("ingest_spectra_per_s", median(ingest_rates), "spectra/s");
  rep.metric("query_p50_us", median(query_us[1]), "us");
  rep.metric("search_p50_us", median(search_us[1]), "us");
  rep.metric("recovery_s", median(recovery_s), "s");
}

void serve_phase::traced(const workload& w, report& rep) {
  round();  // the untraced reference round
  tracing_start();
  round();
  const auto spans = tracing_take();
  count_phases(rep);

  const auto& plain = rounds_.front();
  const auto& traced = rounds_.back();
  print_layer_table(spans, "serve, " + w.name);
  write_spans(spans, "serve", opts_.trace_out);
  add_p50(rep, "net.ping_p50_us", durations_us(spans, "net.ping"));
  add_p50(rep, "net.ingest_ack_p50_us", durations_us(spans, "net.ingest"));
  add_p50(rep, "serve.route_p50_us", durations_us(spans, "serve.route"));
  add_p50(rep, "serve.query_inproc_p50_us", durations_us(spans, "serve.query"));
  add_p50(rep, "serve.search_inproc_p50_us", durations_us(spans, "serve.search"));
  add_p50(rep, "serve.library_search_p50_us", durations_us(spans, "serve.library_search"));
  double candidates = 0.0;
  for (const auto& s : kept_.searches) candidates += static_cast<double>(s.result.candidates);
  rep.metric("serve.candidates_mean",
             kept_.searches.empty()
                 ? 0.0
                 : candidates / static_cast<double>(kept_.searches.size()),
             "count");
  rep.metric("serve.drain_s", median(durations_us(spans, "net.drain")) / 1e6, "s");
  rep.metric("serve.queue_depth_max", static_cast<double>(traced.queue_depth_max), "count");
  rep.metric("serve.journal_mib", traced.journal_mib, "MiB");
  rep.metric("serve.recover_replay_s", traced.recover_replay_s, "s");
  rep.metric("trace.serve_overhead_ratio", traced.ingest_s / plain.ingest_s, "ratio");
}

void check_serve(const dataset& truth, const std::vector<ms::spectrum>& read,
                 const serve_outcome& got, report& rep) {
  const std::vector<ms::spectrum> stream(
      read.begin(), read.begin() + static_cast<std::ptrdiff_t>(std::min(got.spectra, read.size())));
  rep.check(got.acks_ok, "serve: every ingest batch acknowledged in full");

  // The served partition equals one in-process incremental clusterer fed
  // the same stream in the same order.
  auto reference_config = service_config("").pipeline;
  reference_config.threads = k_pool_threads;  // threads never change results
  core::incremental_clusterer reference(reference_config);
  reference.push_batch(stream);
  rep.check(serve::canonical_state({reference.export_state()}, false) == got.served_partition,
            "serve: served partition equals an in-process incremental_clusterer's");

  rep.check(got.nearest_checked > 0 && got.nearest_zero == got.nearest_checked,
            "serve: " + std::to_string(got.nearest_zero) + " of " +
                std::to_string(got.nearest_checked) +
                " sampled ingested spectra report nearest_member == 0 (" +
                std::to_string(got.unencodable) + " unencodable skipped)");

  // Brute-force top-k over the library entries in the shifted key window.
  const auto config = service_config("").pipeline;
  std::vector<ms::spectrum> library_spectra;
  for (const auto& p : truth.peptides) {
    for (const int z : {2, 3}) library_spectra.push_back(ms::theoretical_spectrum(p, z));
  }
  const auto prepared = preprocess::run_preprocessing(library_spectra, config.preprocess);
  const hdc::id_level_encoder encoder(config.encoder, config.preprocess.quantize.mz_bins,
                                      config.preprocess.quantize.intensity_levels);
  struct entry {
    std::int64_t key;
    hdc::hypervector hv;
  };
  std::vector<entry> entries;
  for (const auto& q : prepared.spectra) {
    entries.push_back({preprocess::bucket_index(q.precursor_mz, q.precursor_charge,
                                                config.preprocess.bucketing),
                       encoder.encode(q)});
  }
  // Library ids follow (bucket key ascending, build order).
  std::stable_sort(entries.begin(), entries.end(),
                   [](const entry& a, const entry& b) { return a.key < b.key; });
  std::size_t searches_ok = 0;
  for (const auto& sample : got.searches) {
    const auto& s = stream[sample.stream_index];
    const auto q = preprocess::run_preprocessing({s}, config.preprocess);
    if (q.spectra.empty()) continue;
    const auto hv = encoder.encode(q.spectra.front());
    const auto window = serve::shifted_key_window(q.spectra.front().precursor_mz,
                                                  q.spectra.front().precursor_charge,
                                                  k_tolerance_da, config.preprocess.bucketing);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> scored;  // (hamming, id)
    for (std::uint32_t id = 0; id < entries.size(); ++id) {
      if (entries[id].key < window.lo || entries[id].key > window.hi) continue;
      const auto a = hv.words();
      const auto b = entries[id].hv.words();
      std::uint32_t bits = 0;
      for (std::size_t k = 0; k < a.size(); ++k) bits += std::popcount(a[k] ^ b[k]);
      scored.emplace_back(bits, id);
    }
    const auto candidates = scored.size();
    std::sort(scored.begin(), scored.end());
    scored.resize(std::min<std::size_t>(scored.size(), k_top_k));
    bool ok = sample.result.candidates == candidates &&
              sample.result.hits.size() == scored.size();
    for (std::size_t k = 0; ok && k < scored.size(); ++k) {
      ok = sample.result.hits[k].hamming == scored[k].first &&
           sample.result.hits[k].id == scored[k].second;
    }
    searches_ok += ok ? 1 : 0;
  }
  rep.check(!got.searches.empty() && searches_ok == got.searches.size(),
            "serve: " + std::to_string(searches_ok) + " of " +
                std::to_string(got.searches.size()) +
                " sampled searches equal a brute-force top-" + std::to_string(k_top_k));

  rep.check(got.state_after == got.state_before,
            "serve: canonical_state after recovery equals the state before the drop");
}

}  // namespace specbench
