// The bench command line (bench/common/cli.hpp) and report sink
// (bench/common/report.hpp): every value is checked before a bench runs,
// and a report that cannot be written is an error.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"

using namespace heron;

namespace {

struct Options {
  std::uint64_t seed = 99;
  std::uint32_t max_batch = 1;
  int retries = 10;
  double oversub = 1.0;
  std::string json_path = "BENCH_x.json";
  bool quick = false;
  bool retry = true;
};

bench::Cli table(Options& opt) {
  bench::Cli cli;
  cli.flag("--seed", opt.seed, "<n>", "seed")
      .flag("--max-batch", opt.max_batch, "<n>", "batch")
      .flag("--retries", opt.retries, "<n>", "retries")
      .flag("--oversub", opt.oversub, "<x>", "oversub")
      .flag("--json", opt.json_path, "<path>", "report")
      .flag("--quick", opt.quick, "smoke")
      .flag("--no-retry", opt.retry, "no retries");
  return cli;
}

std::optional<std::string> apply(const bench::Cli& cli,
                                 std::vector<std::string> args,
                                 std::vector<char*>* rest = nullptr) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return cli.apply(argv, rest);
}

std::optional<std::string> apply(Options& opt, std::vector<std::string> args,
                                 std::vector<char*>* rest = nullptr) {
  return apply(table(opt), std::move(args), rest);
}

TEST(BenchCli, ValidValuesSetTheirFields) {
  Options opt;
  EXPECT_EQ(apply(opt, {"--seed", "18446744073709551615", "--max-batch", "8",
                        "--retries", "-3", "--oversub", "2.5", "--json",
                        "out.json", "--quick", "--no-retry"}),
            std::nullopt);
  EXPECT_EQ(opt.seed, 18446744073709551615ull);
  EXPECT_EQ(opt.max_batch, 8u);
  EXPECT_EQ(opt.retries, -3);
  EXPECT_EQ(opt.oversub, 2.5);
  EXPECT_EQ(opt.json_path, "out.json");
  EXPECT_TRUE(opt.quick);
  EXPECT_FALSE(opt.retry);  // a switch sets the opposite of its default
}

TEST(BenchCli, NoArgumentsKeepTheDefaults) {
  Options opt;
  EXPECT_EQ(apply(opt, {}), std::nullopt);
  EXPECT_EQ(opt.seed, 99u);
  EXPECT_EQ(opt.json_path, "BENCH_x.json");
  EXPECT_FALSE(opt.quick);
  EXPECT_TRUE(opt.retry);
}

TEST(BenchCli, RejectsTrailingGarbage) {
  Options opt;
  EXPECT_EQ(apply(opt, {"--seed", "7x"}),
            "--seed: '7x' is not a non-negative integer");
  EXPECT_EQ(opt.seed, 99u);
  EXPECT_NE(apply(opt, {"--oversub", "2.0x"}), std::nullopt);
  EXPECT_NE(apply(opt, {"--seed", ""}), std::nullopt);
  EXPECT_NE(apply(opt, {"--seed", " 7"}), std::nullopt);
}

TEST(BenchCli, RejectsNegativeValuesForUnsignedFlags) {
  Options opt;
  EXPECT_EQ(apply(opt, {"--seed", "-1"}),
            "--seed: '-1' is not a non-negative integer");
  EXPECT_NE(apply(opt, {"--max-batch", "-8"}), std::nullopt);
  EXPECT_EQ(opt.seed, 99u);
  EXPECT_EQ(opt.max_batch, 1u);
}

TEST(BenchCli, RejectsOverflow) {
  Options opt;
  EXPECT_EQ(apply(opt, {"--seed", "18446744073709551616"}),
            "--seed: '18446744073709551616' is out of range");
  EXPECT_NE(apply(opt, {"--max-batch", "4294967296"}), std::nullopt);
  EXPECT_NE(apply(opt, {"--retries", "2147483648"}), std::nullopt);
  EXPECT_NE(apply(opt, {"--oversub", "1e999"}), std::nullopt);
  EXPECT_NE(apply(opt, {"--oversub", "inf"}), std::nullopt);
  EXPECT_NE(apply(opt, {"--oversub", "nan"}), std::nullopt);
  EXPECT_EQ(opt.max_batch, 1u);
  EXPECT_EQ(opt.oversub, 1.0);
}

TEST(BenchCli, RejectsAMissingValue) {
  Options opt;
  EXPECT_EQ(apply(opt, {"--seed"}), "--seed: missing value");
  EXPECT_EQ(apply(opt, {"--quick", "--json"}), "--json: missing value");
}

TEST(BenchCli, RejectsUnknownArguments) {
  Options opt;
  EXPECT_EQ(apply(opt, {"--sede", "7"}), "unknown argument '--sede'");
  EXPECT_EQ(apply(opt, {"7"}), "unknown argument '7'");
}

TEST(BenchCli, ParseExitsTwoWithTheUsageOnABadCommandLine) {
  Options opt;
  std::string prog = "bench", flag = "--seed", value = "-1";
  char* argv[] = {prog.data(), flag.data(), value.data()};
  EXPECT_EXIT(table(opt).parse(3, argv), testing::ExitedWithCode(2),
              "bench: --seed: '-1' is not a non-negative integer\n"
              "usage: bench \\[--seed <n>\\]");
}

TEST(BenchCli, ParseKnownHandsOnUnknownArgumentsInOrder) {
  Options opt;
  std::string prog = "micro", a = "--benchmark_filter=Rdma", b = "--seed",
              c = "5", d = "--benchmark_min_time=0.01";
  char* argv[] = {prog.data(), a.data(), b.data(), c.data(), d.data()};
  const int argc = table(opt).parse_known(5, argv);
  ASSERT_EQ(argc, 3);
  EXPECT_EQ(opt.seed, 5u);
  EXPECT_STREQ(argv[0], "micro");
  EXPECT_STREQ(argv[1], "--benchmark_filter=Rdma");
  EXPECT_STREQ(argv[2], "--benchmark_min_time=0.01");
}

TEST(BenchCli, UsageListsEveryFlagWithItsDefault) {
  Options opt;
  const std::string usage = table(opt).usage("bench");
  EXPECT_EQ(usage.rfind("usage: bench [--seed <n>] [--max-batch <n>] "
                        "[--retries <n>] [--oversub <x>] [--json <path>] "
                        "[--quick] [--no-retry]\n",
                        0),
            0u);
  EXPECT_NE(usage.find("  --seed <n>       seed (default 99)\n"),
            std::string::npos);
  EXPECT_NE(usage.find("  --oversub <x>    oversub (default 1)\n"),
            std::string::npos);
  EXPECT_NE(usage.find("  --json <path>    report (default BENCH_x.json)\n"),
            std::string::npos);
  EXPECT_NE(usage.find("  --quick          smoke\n"), std::string::npos);
}

// Splits a repro command into argv (program name dropped) and applies it
// to fresh defaults.
Options replay(const std::string& repro) {
  std::vector<std::string> args;
  std::size_t at = repro.find(' ');
  while (at != std::string::npos) {
    const std::size_t next = repro.find(' ', at + 1);
    args.push_back(repro.substr(at + 1, next - at - 1));
    at = next;
  }
  Options out;
  EXPECT_EQ(apply(out, args), std::nullopt) << repro;
  return out;
}

TEST(BenchCli, ReproRoundTripsDoublesExactly) {
  Options opt;
  const bench::Cli cli = table(opt);
  ASSERT_EQ(apply(cli, {"--oversub", "1.23456789"}), std::nullopt);
  EXPECT_EQ(cli.repro("bench"), "bench --oversub 1.23456789");
  EXPECT_EQ(replay(cli.repro("bench")).oversub, 1.23456789);

  opt.oversub = 1.0 / 3.0;  // needs all 17 significant digits
  EXPECT_EQ(replay(cli.repro("bench")).oversub, 1.0 / 3.0);
}

TEST(BenchCli, ReproNamesTheProgramByItsBasename) {
  Options opt;
  const bench::Cli cli = table(opt);
  ASSERT_EQ(apply(cli, {"--seed", "7", "--quick"}), std::nullopt);
  EXPECT_EQ(cli.repro("./build/bench/x"), "x --seed 7 --quick");
  EXPECT_EQ(cli.repro("build/bench/x"), "x --seed 7 --quick");
  EXPECT_EQ(cli.repro("/home/ci/heron/build/bench/x"), "x --seed 7 --quick");
}

TEST(BenchCli, ReproWritesChangedFlagsAndOverridesButNoReportPath) {
  Options opt;
  const bench::Cli cli = table(opt);
  EXPECT_EQ(cli.repro("bench"), "bench");
  ASSERT_EQ(apply(cli, {"--no-retry", "--json", "out.json", "--retries", "-3",
                        "--max-batch", "1"}),
            std::nullopt);
  // --max-batch 1 is the default; --json says where, not what, to run.
  EXPECT_EQ(cli.repro("bench"), "bench --retries -3 --no-retry");
  // An override is written even at the default value, in table order.
  EXPECT_EQ(cli.repro("bench", {{"--max-batch", "1"}, {"--seed", "4"}}),
            "bench --seed 4 --max-batch 1 --retries -3 --no-retry");
}

TEST(BenchReport, AFailedWriteIsReported) {
  EXPECT_FALSE(bench::write_report("/dev/full", "{}"));
  EXPECT_FALSE(bench::write_report("/nonexistent-dir/report.json", "{}"));
  EXPECT_TRUE(bench::write_report("", "{}"));  // no --json: nothing to write
}

}  // namespace
