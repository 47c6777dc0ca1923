#include "ms/mgf.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace spechd::ms {
namespace {

TEST(Mgf, ParsesMinimalRecord) {
  std::istringstream in(
      "BEGIN IONS\n"
      "TITLE=scan 1\n"
      "PEPMASS=445.12\n"
      "CHARGE=2+\n"
      "100.5 10\n"
      "200.25 20.5\n"
      "END IONS\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 1U);
  const auto& s = spectra[0];
  EXPECT_EQ(s.title, "scan 1");
  EXPECT_DOUBLE_EQ(s.precursor_mz, 445.12);
  EXPECT_EQ(s.precursor_charge, 2);
  ASSERT_EQ(s.peaks.size(), 2U);
  EXPECT_DOUBLE_EQ(s.peaks[0].mz, 100.5);
  EXPECT_FLOAT_EQ(s.peaks[1].intensity, 20.5F);
}

TEST(Mgf, ParsesPepmassWithIntensity) {
  std::istringstream in("BEGIN IONS\nPEPMASS=445.12 1000.0\n100 1\nEND IONS\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 1U);
  EXPECT_DOUBLE_EQ(spectra[0].precursor_mz, 445.12);
}

TEST(Mgf, ParsesRtAndScans) {
  std::istringstream in(
      "BEGIN IONS\nPEPMASS=445\nRTINSECONDS=123.5\nSCANS=42\n100 1\nEND IONS\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 1U);
  EXPECT_DOUBLE_EQ(spectra[0].retention_time, 123.5);
  EXPECT_EQ(spectra[0].scan, 42U);
}

TEST(Mgf, SortsUnorderedPeaks) {
  std::istringstream in("BEGIN IONS\nPEPMASS=445\n300 3\n100 1\n200 2\nEND IONS\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 1U);
  EXPECT_TRUE(peaks_sorted(spectra[0]));
}

TEST(Mgf, MultipleRecordsAndComments) {
  std::istringstream in(
      "# comment\n"
      "BEGIN IONS\nPEPMASS=100\n50 1\nEND IONS\n"
      "; another comment\n"
      "BEGIN IONS\nPEPMASS=200\n60 1\nEND IONS\n");
  EXPECT_EQ(read_mgf(in).size(), 2U);
}

TEST(Mgf, ChargeVariants) {
  for (const auto& [text, expected] :
       std::vector<std::pair<std::string, int>>{{"2+", 2}, {"3", 3}, {"2-", -2},
                                                {"2+ and 3+", 2}}) {
    std::istringstream in("BEGIN IONS\nPEPMASS=100\nCHARGE=" + text + "\n50 1\nEND IONS\n");
    const auto spectra = read_mgf(in);
    ASSERT_EQ(spectra.size(), 1U);
    EXPECT_EQ(spectra[0].precursor_charge, expected) << text;
  }
}

TEST(Mgf, ThrowsOnNestedBegin) {
  std::istringstream in("BEGIN IONS\nBEGIN IONS\n");
  EXPECT_THROW(read_mgf(in), parse_error);
}

TEST(Mgf, ThrowsOnUnterminatedRecord) {
  std::istringstream in("BEGIN IONS\nPEPMASS=100\n50 1\n");
  EXPECT_THROW(read_mgf(in), parse_error);
}

TEST(Mgf, ThrowsOnBadPeakLine) {
  std::istringstream in("BEGIN IONS\nPEPMASS=100\n50 abc\nEND IONS\n");
  EXPECT_THROW(read_mgf(in), parse_error);
}

TEST(Mgf, ParsesTabSeparatedPeakLines) {
  std::istringstream in("BEGIN IONS\nPEPMASS=100\n50.25\t7.5\n60\t \t8\nEND IONS\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 1U);
  ASSERT_EQ(spectra[0].peaks.size(), 2U);
  EXPECT_DOUBLE_EQ(spectra[0].peaks[0].mz, 50.25);
  EXPECT_FLOAT_EQ(spectra[0].peaks[0].intensity, 7.5F);
  EXPECT_DOUBLE_EQ(spectra[0].peaks[1].mz, 60.0);
  EXPECT_FLOAT_EQ(spectra[0].peaks[1].intensity, 8.0F);
}

TEST(Mgf, IgnoresPeakChargeColumn) {
  std::istringstream in("BEGIN IONS\nPEPMASS=100\n50.5 12 1+\n70.5\t3\t2\nEND IONS\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 1U);
  ASSERT_EQ(spectra[0].peaks.size(), 2U);
  EXPECT_DOUBLE_EQ(spectra[0].peaks[0].mz, 50.5);
  EXPECT_FLOAT_EQ(spectra[0].peaks[0].intensity, 12.0F);
  EXPECT_DOUBLE_EQ(spectra[0].peaks[1].mz, 70.5);
  EXPECT_FLOAT_EQ(spectra[0].peaks[1].intensity, 3.0F);
}

TEST(Mgf, ThrowsOnNonNumericIntensity) {
  for (const char* line : {"50 1x", "50 x", "50", "50\t-"}) {
    std::istringstream in(std::string("BEGIN IONS\nPEPMASS=100\n") + line + "\nEND IONS\n");
    EXPECT_THROW(read_mgf(in), parse_error) << line;
  }
}

TEST(Mgf, ThrowsOnEndWithoutBegin) {
  std::istringstream in("END IONS\n");
  EXPECT_THROW(read_mgf(in), parse_error);
}

TEST(Mgf, RoundTripPreservesData) {
  spectrum s;
  s.title = "roundtrip";
  s.precursor_mz = 523.7754;
  s.precursor_charge = 2;
  s.retention_time = 88.25;
  s.scan = 7;
  s.peaks = {{101.0715, 12.5F}, {228.1343, 100.0F}, {901.4561, 3.25F}};

  std::stringstream io;
  write_mgf(io, {s});
  const auto back = read_mgf(io);
  ASSERT_EQ(back.size(), 1U);
  EXPECT_EQ(back[0].title, s.title);
  EXPECT_NEAR(back[0].precursor_mz, s.precursor_mz, 1e-6);
  EXPECT_EQ(back[0].precursor_charge, s.precursor_charge);
  EXPECT_NEAR(back[0].retention_time, s.retention_time, 1e-6);
  EXPECT_EQ(back[0].scan, s.scan);
  ASSERT_EQ(back[0].peaks.size(), s.peaks.size());
  for (std::size_t i = 0; i < s.peaks.size(); ++i) {
    EXPECT_NEAR(back[0].peaks[i].mz, s.peaks[i].mz, 1e-6);
    EXPECT_NEAR(back[0].peaks[i].intensity, s.peaks[i].intensity, 1e-4);
  }
}

TEST(Mgf, MissingFileThrowsIoError) {
  EXPECT_THROW(read_mgf_file("/nonexistent/path/to.mgf"), io_error);
}

// --- robustness: CRLF, empty spectra, missing CHARGE ------------------------

namespace {
std::string to_crlf(const std::string& text) {
  std::string out;
  out.reserve(text.size() * 2);
  for (const char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}
}  // namespace

TEST(Mgf, CrlfLineEndingsRoundTrip) {
  spectrum s;
  s.title = "windows file";
  s.precursor_mz = 523.7754;
  s.precursor_charge = 2;
  s.retention_time = 88.25;
  s.scan = 7;
  s.peaks = {{101.0715, 12.5F}, {228.1343, 100.0F}};

  std::stringstream unix_io;
  write_mgf(unix_io, {s});
  std::istringstream crlf_in(to_crlf(unix_io.str()));
  const auto back = read_mgf(crlf_in);
  ASSERT_EQ(back.size(), 1U);
  EXPECT_EQ(back[0].title, s.title);
  EXPECT_NEAR(back[0].precursor_mz, s.precursor_mz, 1e-6);
  EXPECT_EQ(back[0].precursor_charge, s.precursor_charge);
  EXPECT_NEAR(back[0].retention_time, s.retention_time, 1e-6);
  EXPECT_EQ(back[0].scan, s.scan);
  ASSERT_EQ(back[0].peaks.size(), s.peaks.size());
  for (std::size_t i = 0; i < s.peaks.size(); ++i) {
    EXPECT_NEAR(back[0].peaks[i].mz, s.peaks[i].mz, 1e-6);
  }
}

TEST(Mgf, CrlfWithBlankLinesAndComments) {
  std::istringstream in(
      "# comment\r\n"
      "\r\n"
      "BEGIN IONS\r\n"
      "PEPMASS=445.12\r\n"
      "CHARGE=2+\r\n"
      "100.5 10\r\n"
      "\r\n"
      "END IONS\r\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 1U);
  EXPECT_DOUBLE_EQ(spectra[0].precursor_mz, 445.12);
  EXPECT_EQ(spectra[0].precursor_charge, 2);
  ASSERT_EQ(spectra[0].peaks.size(), 1U);
}

TEST(Mgf, EmptySpectrumRoundTrips) {
  // A BEGIN/END block with headers but zero peaks is a valid (if useless)
  // record and must survive a write/read cycle, not crash or vanish.
  std::istringstream in(
      "BEGIN IONS\nTITLE=empty\nPEPMASS=300.5\nEND IONS\n"
      "BEGIN IONS\nPEPMASS=400\n150 5\nEND IONS\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 2U);
  EXPECT_TRUE(spectra[0].peaks.empty());
  EXPECT_DOUBLE_EQ(spectra[0].precursor_mz, 300.5);

  std::stringstream io;
  write_mgf(io, spectra);
  const auto back = read_mgf(io);
  ASSERT_EQ(back.size(), 2U);
  EXPECT_TRUE(back[0].peaks.empty());
  EXPECT_DOUBLE_EQ(back[0].precursor_mz, 300.5);
  ASSERT_EQ(back[1].peaks.size(), 1U);
}

TEST(Mgf, MissingChargeIsUnknownAndRoundTrips) {
  std::istringstream in("BEGIN IONS\nPEPMASS=445.12\n100 1\nEND IONS\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 1U);
  EXPECT_EQ(spectra[0].precursor_charge, 0);  // unknown, not guessed

  // The writer must not invent a CHARGE line for unknown charge.
  std::stringstream io;
  write_mgf(io, spectra);
  EXPECT_EQ(io.str().find("CHARGE"), std::string::npos);
  const auto back = read_mgf(io);
  ASSERT_EQ(back.size(), 1U);
  EXPECT_EQ(back[0].precursor_charge, 0);
}

TEST(Mgf, UnparsableChargeIsZeroNotError) {
  std::istringstream in("BEGIN IONS\nPEPMASS=445\nCHARGE=??\n100 1\nEND IONS\n");
  const auto spectra = read_mgf(in);
  ASSERT_EQ(spectra.size(), 1U);
  EXPECT_EQ(spectra[0].precursor_charge, 0);
}

}  // namespace
}  // namespace spechd::ms
