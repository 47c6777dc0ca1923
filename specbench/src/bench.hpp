// Shared declarations of the specbench executable: the run report, the
// generated workloads, the phase entry points, and the span tracer used by
// traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/spechd.hpp"
#include "ms/peptide.hpp"
#include "ms/spectrum.hpp"
#include "serve/search.hpp"

namespace specbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Median (midpoint of the two central values for an even count).
double median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);

/// What one run reports: the output checks, the operation counts and the
/// named metrics (end-to-end ones in untraced runs, per-layer ones in
/// traced runs).
struct report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  /// Records one output check; a failed check marks the run incorrect.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// Prints one phase's operation counts and adds them to the run totals.
  void phase(const std::string& name, std::uint64_t attempted, std::uint64_t failed,
             const std::string& detail = "");
};

// --- workloads --------------------------------------------------------------

/// One generated input set: spectra in stream order, the ground-truth label
/// of each, and the peptides the labels index (the OMS library source).
struct dataset {
  std::vector<spechd::ms::spectrum> spectra;
  std::vector<std::int32_t> labels;
  std::vector<spechd::ms::peptide> peptides;
};

/// Settings of one synthetic component of a workload: `peptides` classes
/// whose neutral masses fall in [mass_lo, mass_hi] Da, with the generator's
/// fragment dropout and noise-peak count.
struct component {
  std::size_t peptides = 0;
  double mass_lo = 0.0;
  double mass_hi = 0.0;
  double peak_dropout = 0.15;
  double noise_peaks = 30.0;
};

struct workload {
  std::string name;
  std::vector<component> components;
  /// The serving path takes the first `serve_spectra` spectra of the
  /// stream: a quarter is ingested in-process during set-up, the rest is
  /// streamed over the wire.
  std::size_t serve_spectra = 0;
};

/// The workload called `name`; throws spechd::error for an unknown name.
const workload& find_workload(const std::string& name);

/// Deterministic in (workload, seed): the same arguments give the same data.
dataset generate(const workload& w, std::uint64_t seed);

/// Writes the program's inputs into `dir`: `batch.mgf` (the spectra),
/// `library.sphlib` (the OMS library built from the peptides). Returns the
/// input digest.
std::string write_inputs(const dataset& data, const std::string& dir);

/// FNV-1a 64 over the named files of `dir`, in order, as 16 hex digits.
std::string digest_files(const std::string& dir);

// --- phases -----------------------------------------------------------------

/// Pool threads of the batch pipeline: thread_pool::parallel_for runs the
/// caller plus this many helpers, so 3 keeps 4 threads busy on 4 cores.
constexpr std::size_t k_pool_threads = 3;

/// The pipeline configuration every batch run uses (library defaults).
spechd::core::spechd_config batch_config();

struct run_options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;        ///< generated inputs, plus scratch journal dirs
  std::string trace_out;  ///< where traced runs write their spans
};

/// One in-process search issued after the drain, kept for the brute-force
/// check.
struct sampled_search {
  std::size_t stream_index = 0;
  spechd::serve::search_result result;
};

/// What the serving phase keeps for its output checks (last round).
struct serve_outcome {
  std::size_t spectra = 0;    ///< prefix of the stream the service was fed
  std::string state_before;   ///< canonical_state before the drop
  std::string state_after;    ///< canonical_state after recovery
  std::string served_partition;  ///< canonical_state without scan counters
  std::size_t nearest_checked = 0;
  std::size_t nearest_zero = 0;
  std::size_t unencodable = 0;
  std::vector<sampled_search> searches;
  bool acks_ok = true;
};

/// Batch path: spectra to labels plus consensus
/// (core::spechd_pipeline::run), on the spectra the run read from its MGF
/// file with ms::read_mgf_file.
class batch_phase {
public:
  batch_phase(const run_options& opts, const std::vector<spechd::ms::spectrum>& spectra)
      : opts_(opts), spectra_(spectra) {}
  /// One untraced round; returns its seconds.
  double round();
  /// The batch end-to-end metrics over the rounds run so far.
  void report_rounds(report& out) const;
  /// Traced run: one traced read of the MGF file, then untraced rounds
  /// alternating with the pipeline composed from its layer calls, a span
  /// around each; per-layer metrics.
  void traced(const workload& w, report& out);
  /// The last round's result, kept for the output checks.
  const spechd::core::spechd_result& outcome() const noexcept { return last_; }

private:
  const run_options& opts_;
  const std::vector<spechd::ms::spectrum>& spectra_;
  spechd::core::spechd_result last_;
  std::vector<double> cluster_rates_;
};
void check_batch(const dataset& truth, const std::vector<spechd::ms::spectrum>& read,
                 const spechd::core::spechd_result& got, report& out);

/// What one serving round measured.
struct serve_round_result {
  double ingest_s = 0.0;
  double recovery_s = 0.0;
  /// Wire latencies beside the ingest stream [0], then alone after the
  /// drain [1].
  std::vector<double> query_us[2];
  std::vector<double> search_us[2];
  std::uint64_t ingests = 0;
  std::uint64_t ingest_failed = 0;
  std::uint64_t query_failed = 0;
  std::uint64_t search_failed = 0;
  std::uint64_t probes = 0;  ///< pings and in-process calls after the drain
  std::size_t queue_depth_max = 0;
  double journal_mib = 0.0;
  double recover_replay_s = 0.0;
};

/// Serving path: journaled service behind net::server with three closed-loop
/// connections (ingest, query, OMS search), drain, drop, recovery.
class serve_phase {
public:
  /// Streams the first serve_spectra of `spectra` (the run's MGF input).
  serve_phase(const run_options& opts, const workload& w,
              const std::vector<spechd::ms::spectrum>& spectra);
  /// One untraced round; returns its seconds.
  double round();
  /// The serving end-to-end metrics over the rounds run so far.
  void report_rounds(report& out) const;
  /// Traced run: an untraced reference round, then a traced one; per-layer
  /// metrics.
  void traced(const workload& w, report& out);
  const serve_outcome& outcome() const noexcept { return kept_; }

private:
  void count_phases(report& out) const;

  const run_options& opts_;
  std::span<const spechd::ms::spectrum> stream_;
  serve_outcome kept_;
  std::vector<serve_round_result> rounds_;
};
void check_serve(const dataset& truth, const std::vector<spechd::ms::spectrum>& stream,
                 const serve_outcome& got, report& out);

/// One set-up of each path: the batch pipeline and its encoder item memory;
/// the service construction, library load and bind until the first ping.
double batch_setup_once();
double serve_setup_once(const run_options& opts);

/// Peak resident set of this process so far, MiB (VmHWM).
double peak_rss_mib();

// --- tracing ----------------------------------------------------------------

/// One recorded span. Times are ns since the tracer started; `name` is the
/// string literal the span was opened with.
struct span_record {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0: a root span
  std::uint64_t request = 0;  ///< spans of one request share this id
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Starts recording (traced runs only); spans opened before are dropped.
void tracing_start();
bool tracing_on();
/// Stops recording and hands back every span.
std::vector<span_record> tracing_take();

/// RAII span around one call into a layer. With tracing off it does
/// nothing. `parent` 0 means the innermost open span of this thread.
class span {
public:
  explicit span(const char* name, std::uint64_t request = 0, std::uint64_t parent = 0);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;
  std::uint64_t id() const noexcept { return rec_.id; }

private:
  span_record rec_;
  bool active_ = false;
};

/// The id of this thread's innermost open span (0 when none).
std::uint64_t current_span();

/// Self time per span name, as a share of wall time: every instant is
/// split evenly among the threads that are inside a span then, and within
/// a thread it goes to the innermost open span. A thread whose innermost
/// span has a child open on another thread is waiting for it and gets no
/// share while another thread works. The values therefore sum to the wall
/// time covered by spans, however many threads ran.
std::map<std::string, double> self_seconds(const std::vector<span_record>& spans);

/// Durations in microseconds of every span called `name`.
std::vector<double> durations_us(const std::vector<span_record>& spans,
                                 const std::string& name);

/// Appends spans as JSON lines to `path`, each tagged with `phase`.
void write_spans(const std::vector<span_record>& spans, const std::string& phase,
                 const std::string& path);

/// Prints the per-layer table: count, total duration, self time, p50.
void print_layer_table(const std::vector<span_record>& spans, const std::string& title);

}  // namespace specbench
