#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/atomic_file.h"
#include "util/backoff.h"
#include "util/checksum.h"
#include "util/crc32_kernels.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace autopipe::util {
namespace {

// ---------------------------------------------------------------- stats

TEST(Stats, MeanAndStddevBasics) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(min_of(xs), 2.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 9.0);
  EXPECT_DOUBLE_EQ(sum(xs), 40.0);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
  EXPECT_DOUBLE_EQ(mean(one), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
}

TEST(Stats, PercentileRejectsEmpty) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Stats, SummarizeAggregatesEverything) {
  const std::vector<double> xs{1, 2, 3};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.sum, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(Stats, MedianOddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5}), 5.0);
}

TEST(Stats, MedianIgnoresNansAndHandlesEmpty) {
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{nan, nan}), 0.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{nan, 7.0, nan, 9.0}), 8.0);
}

TEST(Stats, TrimmedMeanDropsOutliers) {
  // 20% trim of 10 samples drops the 2 extremes (1000 and -1000).
  const std::vector<double> xs{1, 2, 3, 4, 1000, -1000, 5, 6, 7, 8};
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.1), 4.5);
  // frac 0 is the plain mean.
  EXPECT_DOUBLE_EQ(trimmed_mean(std::vector<double>{1, 2, 3}, 0.0), 2.0);
}

TEST(Stats, TrimmedMeanEdgeCases) {
  EXPECT_DOUBLE_EQ(trimmed_mean({}, 0.2), 0.0);
  // Trimming everything falls back to the median.
  EXPECT_DOUBLE_EQ(trimmed_mean(std::vector<double>{1, 9}, 0.5), 5.0);
  // Out-of-range fracs are clamped, NaNs dropped before trimming.
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(trimmed_mean(std::vector<double>{nan, 2, 4}, -1.0), 3.0);
  EXPECT_DOUBLE_EQ(trimmed_mean(std::vector<double>{nan}, 0.2), 0.0);
}

TEST(Stats, WelfordMatchesBatchStats) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  Welford w;
  for (double x : xs) w.add(x);
  EXPECT_EQ(w.count(), xs.size());
  EXPECT_DOUBLE_EQ(w.mean(), mean(xs));
  EXPECT_NEAR(w.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
  EXPECT_DOUBLE_EQ(w.sum(), 40.0);
  const Summary s = w.summary();
  EXPECT_EQ(s.count, xs.size());
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
}

TEST(Stats, WelfordEmptyAndNan) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  w.add(std::nan(""));
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.nan_count(), 1u);
  w.add(3.0);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit in 200 draws
}

TEST(Rng, GaussianHasReasonableMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// ---------------------------------------------------------------- table

TEST(Table, AsciiAligns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b,c", "2"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("| name"), std::string::npos);
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.row(0).size(), 3u);
  EXPECT_EQ(t.row(0)[1], "");
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

// ------------------------------------------------------------------ cli

TEST(Cli, ParsesAllFlagForms) {
  const char* argv[] = {"prog",  "--model",  "gpt2-345m", "--stages=4",
                        "pos1",  "--verbose"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get("model", ""), "gpt2-345m");
  EXPECT_EQ(cli.get_int("stages", 0), 4);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 1.5), 1.5);
}

TEST(Cli, BooleanFollowedByFlag) {
  const char* argv[] = {"prog", "--flag", "--other", "7"};
  Cli cli(4, argv);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_int("other", 0), 7);
}

TEST(Cli, ExplicitFalse) {
  const char* argv[] = {"prog", "--opt=false"};
  Cli cli(2, argv);
  EXPECT_FALSE(cli.get_bool("opt", true));
}

TEST(Cli, CheckedDoubleAcceptsInRangeValues) {
  const char* argv[] = {"prog", "--prob=0.25", "--quantile", "99.9"};
  Cli cli(4, argv);
  EXPECT_DOUBLE_EQ(cli.checked_double("prob", 0.5, 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.checked_double("quantile", 95.0, 0.0, 100.0), 99.9);
  // Absent flag -> fallback, even when the fallback is outside the range
  // (the range constrains user input, not the program's default).
  EXPECT_DOUBLE_EQ(cli.checked_double("missing", 0.5, 0.0, 1.0), 0.5);
}

TEST(Cli, CheckedDoubleRejectsGarbageAndOutOfRange) {
  const char* argv[] = {"prog",           "--prob=banana", "--trail=0.5x",
                        "--notfinite=nan", "--big=1e9",    "--inf=inf"};
  Cli cli(6, argv);
  EXPECT_THROW(cli.checked_double("prob", 0.5, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(cli.checked_double("trail", 0.5, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(cli.checked_double("notfinite", 0.5, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(cli.checked_double("inf", 0.5, 0.0, 1e30),
               std::invalid_argument);
  EXPECT_THROW(cli.checked_double("big", 0.5, 0.0, 1.0),
               std::invalid_argument);
  // The error names the offending flag.
  try {
    cli.checked_double("prob", 0.5, 0.0, 1.0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("prob"), std::string::npos);
  }
}

// ------------------------------------------------------------- checksum

TEST(Checksum, Crc32MatchesKnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32_hex(crc32("123456789")), "cbf43926");
}

TEST(Checksum, IncrementalMatchesOneShot) {
  Crc32 crc;
  crc.update("1234");
  crc.update("56789");
  EXPECT_EQ(crc.value(), crc32("123456789"));
  EXPECT_NE(crc32("123456789"), crc32("123456788"));
}

/// Bit-at-a-time CRC32 register update: the definition the table and fold
/// kernels must reproduce.
std::uint32_t bitwise_crc(std::uint32_t state, const unsigned char* p,
                          std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state ^= p[i];
    for (int k = 0; k < 8; ++k) {
      state = (state & 1u) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    }
  }
  return state;
}

std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t size) {
  return bitwise_crc(0xFFFFFFFFu, p, size) ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next_u64());
  return bytes;
}

std::string_view view(const std::vector<unsigned char>& bytes,
                      std::size_t offset, std::size_t size) {
  return {reinterpret_cast<const char*>(bytes.data()) + offset, size};
}

TEST(Checksum, EveryShortLengthAndOffsetMatchesBitwise) {
  // Lengths cross the fold's 64-byte entry and 16-byte block edges at
  // every alignment.
  const std::vector<unsigned char> bytes = random_bytes(1024 + 16, 3);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::uint32_t want = bitwise_crc32(bytes.data() + offset, len);
      ASSERT_EQ(crc32(view(bytes, offset, len)), want)
          << "offset " << offset << " length " << len;
      Crc32 crc;
      crc.update(bytes.data() + offset, len);
      ASSERT_EQ(crc.value(), want) << "offset " << offset << " length " << len;
    }
  }
}

TEST(Checksum, IncrementalSplitsMatchBitwise) {
  // Seeded split points, so a running state crosses from fold to table
  // (and back) at arbitrary byte positions.
  const std::vector<unsigned char> bytes = random_bytes(8192, 5);
  const std::uint32_t want = bitwise_crc32(bytes.data(), bytes.size());
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    Crc32 crc;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t piece = std::min<std::size_t>(
          bytes.size() - pos, rng.next_u64() % (trial % 2 ? 300 : 40));
      crc.update(bytes.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(crc.value(), want) << "trial " << trial;
  }
}

TEST(Checksum, TenMegabyteBufferMatchesBitwise) {
  const std::vector<unsigned char> bytes = random_bytes(10u << 20, 7);
  EXPECT_EQ(crc32(view(bytes, 0, bytes.size())),
            bitwise_crc32(bytes.data(), bytes.size()));
}

// Both CRC kernels, called directly: dispatch runs only one of them on the
// bulk of any given buffer, so the other needs its own check.
TEST(Checksum, Slice8MatchesBitwiseFromAnyState) {
  const std::vector<unsigned char> bytes = random_bytes(1024 + 16, 9);
  Rng rng(21);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const auto state = static_cast<std::uint32_t>(rng.next_u64());
      ASSERT_EQ(crc32_kernels::slice8(state, bytes.data() + offset, len),
                bitwise_crc(state, bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Checksum, PclmulFoldMatchesBitwiseFromAnyState) {
  if (!crc32_kernels::pclmul_supported()) {
    GTEST_SKIP() << "CPU has no PCLMULQDQ";
  }
  const std::vector<unsigned char> bytes = random_bytes(4096 + 16, 11);
  Rng rng(23);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 64; len <= 4096; len += 16) {
      const auto state = static_cast<std::uint32_t>(rng.next_u64());
      ASSERT_EQ(crc32_kernels::pclmul_fold(state, bytes.data() + offset, len),
                bitwise_crc(state, bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// ---------------------------------------------------------- atomic file

TEST(AtomicFile, WriteThenReadRoundTrip) {
  const std::string path = testing::TempDir() + "/util_atomic_file_test.txt";
  const std::string payload = std::string("line one\nline two\n\0bin", 22);
  ASSERT_TRUE(atomic_write_file(path, payload));
  std::string back;
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, payload);
  // Overwrite is atomic-replace, not append.
  ASSERT_TRUE(atomic_write_file(path, "v2"));
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, "v2");
  std::remove(path.c_str());
  EXPECT_FALSE(read_file(path, back));
  // Unwritable target reports failure instead of throwing.
  EXPECT_FALSE(atomic_write_file("/nonexistent-dir/x/y.txt", "z"));
}

// -------------------------------------------------------------- logging

TEST(Logging, ParseLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::info);
  EXPECT_EQ(parse_log_level("off"), LogLevel::off);
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::warn);
}

TEST(Logging, LevelRoundTrips) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::error);
  EXPECT_EQ(log_level(), LogLevel::error);
  AP_LOG(debug) << "suppressed at error level";  // must not crash
  set_log_level(before);
}

TEST(Logging, LinesStayAtomicUnderConcurrentWriters) {
  // Many threads log multi-token messages concurrently; every line the
  // sink receives must be one intact message (the line-atomicity contract
  // the plan-service workers rely on).
  const LogLevel before = log_level();
  set_log_level(LogLevel::info);
  std::vector<std::string> captured;
  set_log_sink([&](const std::string& line) { captured.push_back(line); });

  constexpr int kThreads = 8;
  constexpr int kLines = 50;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        AP_LOG(info) << "writer=" << t << " seq=" << i << " payload="
                     << "abcdefghijklmnopqrstuvwxyz" << " end=" << t;
      }
    });
  }
  for (auto& w : writers) w.join();
  set_log_sink({});
  set_log_level(before);

  ASSERT_EQ(captured.size(),
            static_cast<std::size_t>(kThreads) * kLines);
  std::set<std::pair<int, int>> seen;
  for (const std::string& line : captured) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    // Exactly one message per line: one "writer=" marker, and the trailing
    // "end=" id matches the leading one (an interleaved line breaks both).
    const auto w_pos = line.find("writer=");
    ASSERT_NE(w_pos, std::string::npos) << line;
    EXPECT_EQ(line.find("writer=", w_pos + 1), std::string::npos) << line;
    int writer = -1;
    int seq = -1;
    int tail = -1;
    const char* fields = line.c_str() + w_pos;
    ASSERT_EQ(std::sscanf(fields,
                          "writer=%d seq=%d payload=abcdefghijklmnopqrstuvwxyz"
                          " end=%d",
                          &writer, &seq, &tail),
              3)
        << line;
    EXPECT_EQ(writer, tail) << line;
    EXPECT_TRUE(seen.emplace(writer, seq).second) << line;
  }
  EXPECT_EQ(seen.size(), captured.size());
}

// ---------------------------------------------------------------- backoff

TEST(Backoff, DefaultIsClassicExponentialDoubling) {
  // jitter_frac = 0 must reproduce the base * multiplier^k sequence the
  // pre-extraction retry loops computed inline -- bit-exactly.
  BackoffOptions opts;
  opts.base_ms = 0.5;
  opts.multiplier = 2.0;
  Backoff b(opts);
  EXPECT_DOUBLE_EQ(b.next_ms(), 0.5);
  EXPECT_DOUBLE_EQ(b.next_ms(), 1.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 2.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 4.0);
  EXPECT_EQ(b.attempts(), 4);
}

TEST(Backoff, CapsAtMaxAndNeverOverflows) {
  BackoffOptions opts;
  opts.base_ms = 10.0;
  opts.multiplier = 10.0;
  opts.max_ms = 250.0;
  Backoff b(opts);
  EXPECT_DOUBLE_EQ(b.next_ms(), 10.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 100.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 250.0);  // 1000 clamped
  // Saturated: many more attempts stay exactly at the cap (no inf/NaN from
  // the internal growth).
  for (int i = 0; i < 200; ++i) EXPECT_DOUBLE_EQ(b.next_ms(), 250.0);
}

TEST(Backoff, JitterStaysInBandAndIsSeeded) {
  BackoffOptions opts;
  opts.base_ms = 8.0;
  opts.multiplier = 1.0;  // isolate the jitter factor
  opts.jitter_frac = 0.25;
  opts.seed = 42;
  Backoff a(opts), b(opts);
  bool saw_jitter = false;
  for (int i = 0; i < 64; ++i) {
    const double da = a.next_ms();
    EXPECT_GE(da, 8.0 * 0.75);
    EXPECT_LE(da, 8.0 * 1.25);
    EXPECT_DOUBLE_EQ(da, b.next_ms());  // same seed => same sequence
    if (da != 8.0) saw_jitter = true;
  }
  EXPECT_TRUE(saw_jitter);
  // A different seed decorrelates.
  opts.seed = 43;
  Backoff c(opts);
  a.reset();
  bool differs = false;
  for (int i = 0; i < 64; ++i) differs |= (a.next_ms() != c.next_ms());
  EXPECT_TRUE(differs);
}

TEST(Backoff, ResetReplaysTheExactSequence) {
  BackoffOptions opts;
  opts.base_ms = 1.0;
  opts.jitter_frac = 0.5;
  opts.seed = 7;
  Backoff b(opts);
  std::vector<double> first;
  for (int i = 0; i < 16; ++i) first.push_back(b.next_ms());
  b.reset();
  EXPECT_EQ(b.attempts(), 0);
  for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(b.next_ms(), first[i]);
}

TEST(Backoff, RejectsIllFormedOptions) {
  BackoffOptions bad;
  bad.base_ms = -1.0;
  EXPECT_THROW(Backoff{bad}, std::invalid_argument);
  bad = {};
  bad.multiplier = 0.5;
  EXPECT_THROW(Backoff{bad}, std::invalid_argument);
  bad = {};
  bad.max_ms = 0.0;
  EXPECT_THROW(Backoff{bad}, std::invalid_argument);
  bad = {};
  bad.jitter_frac = 1.0;
  EXPECT_THROW(Backoff{bad}, std::invalid_argument);
  bad = {};
  bad.jitter_frac = -0.1;
  EXPECT_THROW(Backoff{bad}, std::invalid_argument);
}

TEST(Backoff, SleepForNonPositiveIsANoop) {
  // No timing assertion needed -- just must return immediately and not
  // throw for the degenerate inputs retry loops produce.
  Backoff::sleep_for_ms(0.0);
  Backoff::sleep_for_ms(-5.0);
}

}  // namespace
}  // namespace autopipe::util
