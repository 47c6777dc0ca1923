// Workload generation, input files and digests, plus the small helpers the
// phases share (statistics, the run report, peak RSS).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/spechd.hpp"
#include "ms/mgf.hpp"
#include "ms/synthetic.hpp"
#include "serve/search.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace specbench {

namespace {

// Input file names, in digest order.
const std::vector<std::string> k_input_files = {"batch.mgf", "library.sphlib"};

// Why these shapes (see README.md): 5000 classes of ~10 replicates give
// about 50k spectra per workload. Spread over 2500 Da that is ~20 spectra
// per 1-Da bucket; packed into 20 Da it is hundreds to thousands per bucket,
// the per-bucket load of a repository-scale run; the mixed shape puts a
// fifth of the classes into one 10-Da hot window. The dense shape also
// drops 62 % of the fragments and adds only 4 noise peaks, so many spectra
// keep few peaks, and few-peak spectra of different peptides fall within
// the cut of each other: ICR is about 1 % at the default cut, and clustered
// ratio and ICR trade off as in the paper's Fig. 10. Its serving path takes
// its first 20k spectra (about 1000 per hot bucket), which keeps one
// serving round, recovery included, to a few seconds.
const std::vector<workload> k_workloads = {
    {"batch-wide", {{5000, 800.0, 3300.0}}, 60000},
    {"batch-dense", {{5000, 1500.0, 1520.0, 0.62, 4.0}}, 20000},
    {"serve-mixed", {{4000, 800.0, 3300.0}, {1000, 1500.0, 1510.0}}, 60000},
};

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void report::check(bool ok, const std::string& what) {
  std::cout << "check " << (ok ? "ok  " : "FAIL") << "  " << what << "\n";
  if (!ok) correct = false;
}

void report::metric(const std::string& name, double value, const std::string& unit) {
  metrics[name] = {value, unit};
}

void report::phase(const std::string& name, std::uint64_t phase_attempted,
                   std::uint64_t phase_failed, const std::string& detail) {
  std::cout << "phase " << name << ": attempted " << phase_attempted << ", failed "
            << phase_failed << (detail.empty() ? "" : " (" + detail + ")") << "\n";
  attempted += phase_attempted;
  failed += phase_failed;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw spechd::io_error("no VmHWM line in /proc/self/status");
}

const workload& find_workload(const std::string& name) {
  for (const auto& w : k_workloads) {
    if (w.name == name) return w;
  }
  throw spechd::error("unknown workload: " + name);
}

dataset generate(const workload& w, std::uint64_t seed) {
  dataset data;
  std::int32_t label_base = 0;
  for (std::size_t k = 0; k < w.components.size(); ++k) {
    const auto& c = w.components[k];
    spechd::ms::synthetic_config config;
    config.peptide_count = c.peptides;
    config.spectra_per_peptide_mean = 10.0;
    config.peak_dropout = c.peak_dropout;
    config.noise_peaks_per_spectrum = c.noise_peaks;
    config.peptide_mass_min = c.mass_lo;
    config.peptide_mass_max = c.mass_hi;
    config.seed = spechd::splitmix64(seed * 131 + k).next();
    auto part = spechd::ms::generate_dataset(config);
    for (auto& s : part.spectra) {
      data.labels.push_back(s.label + label_base);
      data.spectra.push_back(std::move(s));
    }
    for (auto& p : part.library) data.peptides.push_back(std::move(p));
    label_base += static_cast<std::int32_t>(part.library.size());
  }
  // One stream order for all components, so a hot window is interleaved
  // with the wide traffic rather than arriving as one block.
  spechd::xoshiro256ss rng(seed ^ 0x5EC4DBE7C4ULL);
  for (std::size_t i = data.spectra.size(); i > 1; --i) {
    const std::size_t j = rng.bounded(i);
    std::swap(data.spectra[i - 1], data.spectra[j]);
    std::swap(data.labels[i - 1], data.labels[j]);
  }
  std::uint32_t scan = 0;
  for (std::size_t i = 0; i < data.spectra.size(); ++i) {
    data.spectra[i].scan = ++scan;
    data.spectra[i].label = spechd::ms::unlabelled;  // the program never sees labels
  }
  return data;
}

std::string write_inputs(const dataset& data, const std::string& dir) {
  std::filesystem::create_directories(dir);
  spechd::ms::write_mgf_file(dir + "/batch.mgf", data.spectra);
  const auto library = spechd::serve::spectral_library::from_peptides(
      data.peptides, {2, 3}, spechd::core::spechd_config{});
  library.save(dir + "/library.sphlib");
  // Make the inputs durable now, so their write-back does not land inside
  // the journal fsyncs the serving path measures.
  for (const auto& name : k_input_files) {
    const int fd = ::open((dir + "/" + name).c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) throw spechd::io_error("cannot fsync " + dir + "/" + name);
    ::close(fd);
  }
  return digest_files(dir);
}

std::string digest_files(const std::string& dir) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::vector<char> buffer(1 << 16);
  for (const auto& name : k_input_files) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    if (!in) throw spechd::io_error("cannot read input file " + dir + "/" + name);
    while (in) {
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      for (std::streamsize i = 0; i < in.gcount(); ++i) {
        hash ^= static_cast<unsigned char>(buffer[static_cast<std::size_t>(i)]);
        hash *= 0x100000001b3ULL;
      }
    }
  }
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << hash;
  return out.str();
}

}  // namespace specbench
