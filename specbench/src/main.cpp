// specbench: the end-to-end benchmark of SpecHD's two user-facing paths.
//
//   specbench gen --workload W --seed N --dir D
//       generates the workload's inputs into D (run in its own process, so
//       the generator's memory never counts as the program's).
//   specbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--trace-out FILE]
//       measures, checks the outputs, and prints one JSON object as the
//       last line of standard output. --trace-out (required with --trace 1)
//       is where the spans go.
//
// run.py drives both; see README.md for the workloads and metrics.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "ms/mgf.hpp"

namespace {

using namespace specbench;

// Must match BENCHMARK.json: untraced runs print exactly the end-to-end
// metrics, traced runs exactly the per-layer ones.
const std::vector<std::string> k_end_to_end = {
    "setup_s",      "peak_rss_mib", "clustered_ratio", "purity",        "cluster_spectra_per_s",
    "ingest_spectra_per_s", "query_p50_us", "search_p50_us", "recovery_s"};
const std::vector<std::string> k_per_layer = {
    "ms.read_s",           "preprocess.s",          "preprocess.buckets",
    "preprocess.max_bucket", "hdc.item_memory_s",   "hdc.encode_s",
    "hdc.pairwise_s",      "hdc.pairs",             "cluster.hac_s",
    "cluster.merges",      "cluster.consensus_s",   "core.glue_s",
    "core.pipeline_s",     "net.ping_p50_us",       "net.ingest_ack_p50_us",
    "serve.route_p50_us",
    "serve.query_inproc_p50_us", "serve.search_inproc_p50_us",
    "serve.library_search_p50_us", "serve.candidates_mean", "serve.drain_s",
    "serve.queue_depth_max", "serve.journal_mib",   "serve.recover_replay_s",
    "trace.batch_overhead_ratio", "trace.batch_self_sum_ratio",
    "trace.serve_overhead_ratio"};

/// Set-ups sampled before every pair of rounds and after the last, so they
/// are spread over the run as the rounds are: their cost drifts with host
/// load within seconds, and samples taken in one burst see one moment of
/// it. The median of all is reported.
constexpr int k_setups_per_pair = 5;

std::string arg_value(int argc, char** argv, const std::string& flag) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  throw std::invalid_argument("missing " + flag);
}

void print_result(const report& rep, const std::vector<std::string>& names) {
  std::string out = "{\"correct\": " + std::string(rep.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(rep.attempted) +
                    ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = rep.metrics.find(names[i]);
    if (it == rep.metrics.end()) throw std::logic_error("metric not measured: " + names[i]);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second.first);
    out += (i == 0 ? "\"" : ", \"") + names[i] + "\": {\"value\": " + value +
           ", \"unit\": \"" + it->second.second + "\"}";
  }
  std::cout << out << "}}" << std::endl;
}

int run(const run_options& opts) {
  const auto& w = find_workload(opts.workload);
  report rep;
  std::cout << "workload " << w.name << ", seed " << opts.seed << ", inputs digest "
            << digest_files(opts.dir) << "\n";
  // MGF file to spectra, once per run: both paths take their input from it.
  const auto t0 = clock_type::now();
  const auto spectra = spechd::ms::read_mgf_file(opts.dir + "/batch.mgf");
  const double read_s = seconds_since(t0);
  rep.phase("batch.read", 1, 0, std::to_string(spectra.size()) + " spectra, 0 parse errors");
  std::cout << "MGF load: " << spectra.size() << " spectra in " << read_s << " s = "
            << static_cast<double>(spectra.size()) / read_s
            << " spectra/s (printed, not gated: see README.md)\n";
  batch_phase batch(opts, spectra);
  serve_phase serve(opts, w, spectra);
  if (opts.trace) {
    serve.traced(w, rep);
    batch.traced(w, rep);
  } else {
    // Whole rounds, alternating the two paths so both sample the whole run,
    // while the next pair of rounds (with its set-ups) still fits in the
    // run's seconds.
    std::vector<double> setups;
    const auto set_up = [&] {
      for (int i = 0; i < k_setups_per_pair; ++i) {
        setups.push_back(batch_setup_once() + serve_setup_once(opts));
      }
    };
    const auto start = clock_type::now();
    double pair_s = 0.0;
    do {
      const auto t0 = clock_type::now();
      set_up();
      serve.round();
      batch.round();
      pair_s = seconds_since(t0);
    } while (seconds_since(start) + pair_s <= opts.seconds);
    set_up();
    rep.phase("setup", setups.size(), 0,
              "pipeline + item memory, service + library + bind + ping");
    std::cout << "setup: median " << median(setups) << " s over " << setups.size()
              << " set-ups, p10 " << percentile(setups, 0.1) << " s, p90 "
              << percentile(setups, 0.9) << " s\n";
    rep.metric("setup_s", median(setups), "s");
    serve.report_rounds(rep);
    batch.report_rounds(rep);
    rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  }

  // Output checks run after the peak RSS is read: they regenerate inputs.
  const auto truth = generate(w, opts.seed);
  check_batch(truth, spectra, batch.outcome(), rep);
  check_serve(truth, spectra, serve.outcome(), rep);
  print_result(rep, opts.trace ? k_per_layer : k_end_to_end);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "gen") {
      const auto& w = find_workload(arg_value(argc, argv, "--workload"));
      const auto seed = std::stoull(arg_value(argc, argv, "--seed"));
      const auto digest = write_inputs(generate(w, seed), arg_value(argc, argv, "--dir"));
      std::cout << "generated " << w.name << " seed " << seed << ", digest " << digest << "\n";
      return 0;
    }
    if (mode == "run") {
      run_options opts;
      opts.workload = arg_value(argc, argv, "--workload");
      opts.seed = std::stoull(arg_value(argc, argv, "--seed"));
      opts.seconds = std::stod(arg_value(argc, argv, "--seconds"));
      opts.trace = arg_value(argc, argv, "--trace") == "1";
      opts.dir = arg_value(argc, argv, "--dir");
      if (opts.trace) opts.trace_out = arg_value(argc, argv, "--trace-out");
      return run(opts);
    }
    std::cerr << "usage: specbench gen|run --workload W --seed N [--seconds S --trace 0|1] "
                 "--dir D [--trace-out FILE]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "specbench: " << e.what() << "\n";
    return 1;
  }
}
