#include "ms/mgf.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <ostream>

#include "util/error.hpp"

namespace spechd::ms {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

bool parse_double(std::string_view s, double& out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

/// Pops the next space- or tab-separated token off the front of `s`
/// (empty when none is left).
std::string_view next_token(std::string_view& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) {
    s = {};
    return {};
  }
  s.remove_prefix(begin);
  const auto end = std::min(s.find_first_of(" \t"), s.size());
  const std::string_view token = s.substr(0, end);
  s.remove_prefix(end);
  return token;
}

/// CHARGE values look like "2+", "3+", "2", or "2+ and 3+" (we take the
/// first). Returns 0 when unparsable.
int parse_charge(std::string_view v) {
  v = trim(v);
  int sign = 1;
  std::size_t end = 0;
  while (end < v.size() && std::isdigit(static_cast<unsigned char>(v[end]))) ++end;
  if (end == 0) return 0;
  int value = 0;
  for (std::size_t i = 0; i < end; ++i) value = value * 10 + (v[i] - '0');
  if (end < v.size() && v[end] == '-') sign = -1;
  return sign * value;
}

}  // namespace

std::vector<spectrum> read_mgf(std::istream& in, const std::string& source_name) {
  std::vector<spectrum> result;
  std::string line;
  std::size_t line_no = 0;
  bool in_ions = false;
  spectrum current;

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view v = trim(line);
    if (v.empty() || v.front() == '#' || v.front() == ';') continue;

    if (v == "BEGIN IONS") {
      if (in_ions) throw parse_error(source_name, line_no, "nested BEGIN IONS");
      in_ions = true;
      current = spectrum{};
      continue;
    }
    if (v == "END IONS") {
      if (!in_ions) throw parse_error(source_name, line_no, "END IONS without BEGIN IONS");
      in_ions = false;
      sort_peaks(current);
      result.push_back(std::move(current));
      continue;
    }
    if (!in_ions) continue;  // header junk between records is tolerated

    if (const auto eq = v.find('='); eq != std::string_view::npos &&
                                     !std::isdigit(static_cast<unsigned char>(v.front()))) {
      const std::string_view key = v.substr(0, eq);
      const std::string_view value = trim(v.substr(eq + 1));
      if (key == "TITLE") {
        current.title = std::string(value);
      } else if (key == "PEPMASS") {
        // PEPMASS may carry "mz [intensity]"; only the first token matters.
        const auto space = value.find_first_of(" \t");
        const std::string_view mz_str =
            space == std::string_view::npos ? value : value.substr(0, space);
        if (!parse_double(mz_str, current.precursor_mz)) {
          throw parse_error(source_name, line_no, "bad PEPMASS value");
        }
      } else if (key == "CHARGE") {
        current.precursor_charge = parse_charge(value);
      } else if (key == "RTINSECONDS") {
        double rt = 0.0;
        if (parse_double(value, rt)) current.retention_time = rt;
      } else if (key == "SCANS") {
        double scans = 0.0;
        if (parse_double(value, scans) && scans >= 0) {
          current.scan = static_cast<std::uint32_t>(scans);
        }
      }
      // Unknown keys are skipped (MGF allows tool-specific headers).
      continue;
    }

    // Peak line: "mz intensity [charge]", split on spaces or tabs; the
    // optional charge column is ignored.
    std::string_view rest = v;
    const std::string_view mz_str = next_token(rest);
    const std::string_view intensity_str = next_token(rest);
    double mz = 0.0;
    double intensity = 0.0;
    if (!parse_double(mz_str, mz) || !parse_double(intensity_str, intensity)) {
      throw parse_error(source_name, line_no, "bad peak line: " + std::string(v));
    }
    current.peaks.push_back({mz, static_cast<float>(intensity)});
  }
  if (in_ions) {
    throw parse_error(source_name, line_no, "unterminated BEGIN IONS record");
  }
  return result;
}

std::vector<spectrum> read_mgf_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw io_error("cannot open MGF file: " + path);
  return read_mgf(in, path);
}

void write_mgf(std::ostream& out, const std::vector<spectrum>& spectra) {
  out << std::setprecision(10);
  for (const auto& s : spectra) {
    out << "BEGIN IONS\n";
    if (!s.title.empty()) out << "TITLE=" << s.title << '\n';
    out << "PEPMASS=" << s.precursor_mz << '\n';
    if (s.precursor_charge > 0) out << "CHARGE=" << s.precursor_charge << "+\n";
    if (s.retention_time > 0.0) out << "RTINSECONDS=" << s.retention_time << '\n';
    if (s.scan != 0) out << "SCANS=" << s.scan << '\n';
    for (const auto& p : s.peaks) {
      out << p.mz << ' ' << p.intensity << '\n';
    }
    out << "END IONS\n";
  }
}

void write_mgf_file(const std::string& path, const std::vector<spectrum>& spectra) {
  std::ofstream out(path);
  if (!out) throw io_error("cannot create MGF file: " + path);
  write_mgf(out, spectra);
  if (!out) throw io_error("write failure on MGF file: " + path);
}

}  // namespace spechd::ms
