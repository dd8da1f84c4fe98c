// The bench driver's one flag parser and one run record
// (bench/bench_common.h): malformed flags fail naming the flag, and a
// record appends as exactly one line that common/json parses back.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/status.h"

namespace swiftsim::bench {
namespace {

BenchOptions Parse(std::vector<std::string> args, unsigned shared) {
  std::string name = "case";
  std::vector<char*> argv = {name.data()};
  for (std::string& a : args) argv.push_back(a.data());
  return ParseOptions(static_cast<int>(argv.size()), argv.data(),
                      /*default_scale=*/0.5, shared);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BenchParseOptions, MalformedFlagsThrowNamingTheFlag) {
  const struct {
    const char* arg;
    const char* named;
  } rows[] = {
      {"--bogus", "--bogus"},       {"--scale=abc", "--scale"},
      {"--scale=-1", "--scale"},    {"--scale=", "--scale"},
      {"--threads=x", "--threads"}, {"--no-memo=1", "--no-memo=1"},
  };
  for (const auto& row : rows) {
    try {
      Parse({row.arg}, kWorkload | kThreads | kNoMemo);
      ADD_FAILURE() << row.arg << " parsed";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(row.named), std::string::npos)
          << row.arg << ": " << e.what();
    }
  }
}

TEST(BenchParseOptions, UndeclaredSharedFlagsAreUnknown) {
  EXPECT_THROW(Parse({"--scale=0.1"}, 0), SimError);
  EXPECT_THROW(Parse({"--no-skip"}, kWorkload), SimError);
  EXPECT_THROW(Parse({"--fault-plan=plan.ini"}, kWorkload), SimError);
  EXPECT_NO_THROW(Parse({}, 0));
}

TEST(BenchParseOptions, DeclaredFlagsApply) {
  const BenchOptions opt =
      Parse({"--scale=0.25", "--apps=BFS,GEMM", "--threads=3", "--no-memo",
             "--no-skip", "--seed=7"},
            kWorkload | kThreads | kNoMemo | kNoSkip);
  EXPECT_DOUBLE_EQ(opt.scale, 0.25);
  EXPECT_EQ(opt.apps, (std::vector<std::string>{"BFS", "GEMM"}));
  EXPECT_EQ(opt.threads, 3u);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_FALSE(opt.run.memo);
  EXPECT_FALSE(opt.run.model.cycle_skip);
  EXPECT_DOUBLE_EQ(Parse({}, kScale).scale, 0.5);
}

TEST(BenchParseOptions, MissingFaultPlanFailsWhileParsing) {
  try {
    Parse({"--fault-plan=/nonexistent/plan.ini"}, kFaultPlan);
    ADD_FAILURE() << "missing plan parsed";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/plan.ini"),
              std::string::npos)
        << e.what();
  }
}

Record HostileRecord() {
  Record r;
  r.bench_case = "fig4";
  r.app = "a\"b\\c\nd\xc3\xa9";
  r.level = "swift-sim-memory";
  r.status = "error";
  r.error = "bad \"plan\"\\\n\xff line";
  r.cycles = 18446744073709551615ull;
  r.instructions = 12345;
  r.wall_s = 1.5;
  r.threads = 4;
  r.scale = 0.25;
  r.seed = 0x5eed5eedULL;
  r.git = "abc123-dirty";
  r.nproc = 4;
  r.cpu = "Some CPU @ 2.0GHz";
  r.Count("memo.hits", 3);
  r.Count("zero", 0);
  r.Count("trace_bytes", 12345678901.0);
  r.Count("bytes_per_instr", 0.5);
  return r;
}

TEST(BenchRecord, AppendsOneLineThatParsesBackFieldForField) {
  const std::string path = ::testing::TempDir() + "bench_record.jsonl";
  std::remove(path.c_str());
  const Record r = HostileRecord();
  AppendRecord(path, r);
  const std::string text = ReadFile(path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.find('\n'), text.size() - 1) << text;

  const JsonValue v = ParseJson(text);
  EXPECT_EQ(v.Find("case")->AsString(), r.bench_case);
  EXPECT_EQ(v.Find("app")->AsString(), r.app);
  EXPECT_EQ(v.Find("level")->AsString(), r.level);
  EXPECT_EQ(v.Find("status")->AsString(), r.status);
  EXPECT_EQ(v.Find("error")->AsString(), r.error);
  EXPECT_EQ(v.Find("cycles")->AsUint(), r.cycles);
  EXPECT_EQ(v.Find("instructions")->AsUint(), r.instructions);
  EXPECT_DOUBLE_EQ(v.Find("wall_s")->AsDouble(), r.wall_s);
  EXPECT_EQ(v.Find("threads")->AsUint(), r.threads);
  EXPECT_DOUBLE_EQ(v.Find("scale")->AsDouble(), r.scale);
  EXPECT_EQ(v.Find("seed")->AsUint(), r.seed);
  EXPECT_EQ(v.Find("git")->AsString(), r.git);
  const JsonValue* host = v.Find("host");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->Find("nproc")->AsUint(), r.nproc);
  EXPECT_EQ(host->Find("cpu")->AsString(), r.cpu);
  const JsonValue* counters = v.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->Members().size(), 3u);  // the zero one is dropped
  EXPECT_EQ(counters->Find("memo.hits")->AsUint(), 3u);
  EXPECT_EQ(counters->Find("trace_bytes")->AsUint(), 12345678901u);
  EXPECT_DOUBLE_EQ(counters->Find("bytes_per_instr")->AsDouble(), 0.5);
  std::remove(path.c_str());
}

TEST(BenchRecord, SecondAppendLeavesTheFirstLineByteIdentical) {
  const std::string path = ::testing::TempDir() + "bench_record_twice.jsonl";
  std::remove(path.c_str());
  AppendRecord(path, HostileRecord());
  const std::string first = ReadFile(path);
  Record other = HostileRecord();
  other.app = "GEMM";
  AppendRecord(path, other);
  const std::string both = ReadFile(path);
  ASSERT_GT(both.size(), first.size());
  EXPECT_EQ(both.substr(0, first.size()), first);
  const std::string second = both.substr(first.size());
  EXPECT_EQ(second.find('\n'), second.size() - 1);
  EXPECT_EQ(ParseJson(second).Find("app")->AsString(), "GEMM");
  std::remove(path.c_str());
}

TEST(BenchRecord, RecordOfCarriesTheOutcome) {
  RunOutcome out;
  out.result.app = "BFS";
  out.result.simulator = "swift-sim-basic";
  out.result.total_cycles = 42;
  out.result.instructions = 7;
  out.result.metrics["memo.hits"] = 2;
  out.outcome.status = AppStatus::kFailed;
  out.outcome.hang = true;
  out.outcome.error = "watchdog";
  const Record r = RecordOf(out);
  EXPECT_EQ(r.app, "BFS");
  EXPECT_EQ(r.level, "swift-sim-basic");
  EXPECT_EQ(r.status, "hang");
  EXPECT_EQ(r.error, "watchdog");
  EXPECT_EQ(r.cycles, 42u);
  EXPECT_EQ(r.instructions, 7u);
  EXPECT_EQ(r.Counter("memo.hits"), 2);
  EXPECT_EQ(r.Counter("memo.misses"), 0);
  EXPECT_EQ(r.counters.size(), 1u);
}

}  // namespace
}  // namespace swiftsim::bench
