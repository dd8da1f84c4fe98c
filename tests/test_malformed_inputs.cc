// Malformed-input hardening (DESIGN.md §11): every external input surface
// — the native trace format, the Accel-Sim importer, and the INI config
// layer — must reject truncated, garbage, and overflowing inputs with a
// typed SimError that names the offending line or key. No case may crash,
// allocate unboundedly off a file-supplied count, or hang.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "config/gpu_config.h"
#include "config/ini.h"
#include "swiftsim/service.h"
#include "trace/accelsim_import.h"
#include "trace/trace_io.h"

namespace swiftsim {
namespace {

struct BadInput {
  const char* label;
  const char* text;
  const char* expect_in_what;  // "" = just require SimError
};

constexpr const char* kGoodKernelHeader =
    "kernel k id=0 ctas=1 warps_per_cta=1 threads_per_cta=32 smem=0 "
    "regs=16 variants=1\n";

const std::vector<BadInput>& BadKernelTraces() {
  static const std::vector<BadInput> cases = {
      {"empty", "", ""},
      {"garbage_header", "hello world this is not a trace\n", ""},
      {"truncated_after_header",
       "kernel k id=0 ctas=1 warps_per_cta=1 threads_per_cta=32 smem=0 "
       "regs=16 variants=1\n",
       ""},
      {"truncated_after_variant",
       "kernel k id=0 ctas=1 warps_per_cta=1 threads_per_cta=32 smem=0 "
       "regs=16 variants=1\n"
       "variant 0\n",
       ""},
      {"truncated_mid_warp",
       "kernel k id=0 ctas=1 warps_per_cta=1 threads_per_cta=32 smem=0 "
       "regs=16 variants=1\n"
       "variant 0\n"
       "warp 0 n=3\n"
       "i 0 IADD d=1 s=0 m=ffffffff\n",
       ""},
      {"uint_overflow",
       "kernel k id=99999999999999999999999 ctas=1 warps_per_cta=1 "
       "threads_per_cta=32 smem=0 regs=16 variants=1\n",
       "id"},
      {"negative_count",
       "kernel k id=0 ctas=-1 warps_per_cta=1 threads_per_cta=32 smem=0 "
       "regs=16 variants=1\n",
       ""},
      {"huge_warp_count",
       "kernel k id=0 ctas=1 warps_per_cta=1 threads_per_cta=32 smem=0 "
       "regs=16 variants=1\n"
       "variant 0\n"
       "warp 0 n=999999999999\n",
       "limit"},
      {"garbage_instruction",
       "kernel k id=0 ctas=1 warps_per_cta=1 threads_per_cta=32 smem=0 "
       "regs=16 variants=1\n"
       "variant 0\n"
       "warp 0 n=1\n"
       "this is not an instruction\n",
       "line 4"},
  };
  return cases;
}

TEST(MalformedTrace, EveryCaseThrowsSimError) {
  for (const BadInput& c : BadKernelTraces()) {
    std::stringstream buf(c.text);
    try {
      ReadKernelTrace(buf);
      FAIL() << c.label << ": expected SimError";
    } catch (const SimError& e) {
      if (c.expect_in_what[0] != '\0') {
        EXPECT_NE(std::string(e.what()).find(c.expect_in_what),
                  std::string::npos)
            << c.label << ": " << e.what();
      }
    } catch (...) {
      FAIL() << c.label << ": threw something other than SimError";
    }
  }
}

TEST(MalformedTrace, ApplicationHeaderAndTruncation) {
  {
    std::stringstream buf("not an application header\n");
    EXPECT_THROW(ReadApplication(buf), SimError);
  }
  {
    // Promises two kernels, delivers one.
    std::stringstream buf(std::string("application foo kernels=2\n") +
                          kGoodKernelHeader +
                          "variant 0\n"
                          "warp 0 n=1\n"
                          "i 0 EXIT d=- s=- m=ffffffff\n"
                          "end_warp\n"
                          "end_variant\n"
                          "end_kernel\n");
    EXPECT_THROW(ReadApplication(buf), SimError);
  }
  {
    std::stringstream buf("application foo kernels=99999999999999999999\n");
    EXPECT_THROW(ReadApplication(buf), SimError);
  }
}

TEST(MalformedTrace, MissingFileNamesThePath) {
  try {
    ReadKernelTraceFile("/nonexistent/never/there.sstrace");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("never/there"), std::string::npos)
        << e.what();
  }
}

constexpr const char* kAccelHeader =
    "-kernel name = vecadd\n"
    "-kernel id = 3\n"
    "-grid dim = (4,2,1)\n"
    "-block dim = (64,1,1)\n"
    "-shmem = 1024\n"
    "-nregs = 24\n";

const std::vector<BadInput>& BadAccelSimTraces() {
  static const std::vector<BadInput> cases = {
      {"empty", "", ""},
      {"garbage", "??? definitely not an accel-sim trace ???\n", ""},
      {"grid_dim_overflow",
       "-kernel name = k\n"
       "-kernel id = 1\n"
       "-grid dim = (4294967295,4294967295,4294967295)\n"
       "-block dim = (64,1,1)\n"
       "-shmem = 0\n"
       "-nregs = 16\n"
       "#BEGIN_TB\n",
       "overflow"},
      {"implausible_block_dim",
       "-kernel name = k\n"
       "-kernel id = 1\n"
       "-grid dim = (1,1,1)\n"
       "-block dim = (70000,1,1)\n"
       "-shmem = 0\n"
       "-nregs = 16\n"
       "#BEGIN_TB\n",
       ""},
      {"malformed_dim3",
       "-kernel name = k\n"
       "-kernel id = 1\n"
       "-grid dim = (banana)\n",
       ""},
  };
  return cases;
}

TEST(MalformedAccelSim, EveryCaseThrowsSimError) {
  for (const BadInput& c : BadAccelSimTraces()) {
    std::stringstream buf(c.text);
    try {
      ImportAccelSimKernel(buf);
      FAIL() << c.label << ": expected SimError";
    } catch (const SimError& e) {
      if (c.expect_in_what[0] != '\0') {
        EXPECT_NE(std::string(e.what()).find(c.expect_in_what),
                  std::string::npos)
            << c.label << ": " << e.what();
      }
    } catch (...) {
      FAIL() << c.label << ": threw something other than SimError";
    }
  }
}

TEST(MalformedAccelSim, HugeInstCountRejectedBeforeAllocation) {
  // A hostile `insts =` count must be rejected up front, not handed to
  // vector::reserve.
  std::stringstream buf(std::string(kAccelHeader) +
                        "#BEGIN_TB\n"
                        "thread block = 0,0,0\n"
                        "warp = 0\n"
                        "insts = 999999999999\n");
  EXPECT_THROW(ImportAccelSimKernel(buf), SimError);
}

TEST(MalformedAccelSim, TruncatedMidWarpThrows) {
  std::stringstream buf(std::string(kAccelHeader) +
                        "#BEGIN_TB\n"
                        "thread block = 0,0,0\n"
                        "warp = 0\n"
                        "insts = 2\n"
                        "0100 ffffffff 0 EXIT 0 0\n");
  EXPECT_THROW(ImportAccelSimKernel(buf), SimError);
}

TEST(MalformedAccelSim, GarbageInstructionNamesTheLine) {
  std::stringstream buf(std::string(kAccelHeader) +
                        "#BEGIN_TB\n"
                        "thread block = 0,0,0\n"
                        "warp = 0\n"
                        "insts = 1\n"
                        "not an instruction at all\n");
  try {
    ImportAccelSimKernel(buf);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << e.what();
  }
}

TEST(MalformedIni, StructuralErrorsNameTheLine) {
  try {
    IniFile::ParseString("[unterminated\nkey = 1\n");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(IniFile::ParseString("no equals sign here\n"), SimError);
  EXPECT_THROW(IniFile::ParseString("= value without key\n"), SimError);
  EXPECT_THROW(IniFile::ParseString("[]\n"), SimError);
}

TEST(MalformedIni, TypedGettersRejectGarbageValues) {
  const IniFile ini = IniFile::ParseString(
      "count = banana\n"
      "ratio = 1.2.3\n"
      "flag = maybe\n"
      "big = 99999999999999999999999\n");
  EXPECT_THROW(ini.GetUint("count"), SimError);
  EXPECT_THROW(ini.GetDouble("ratio"), SimError);
  EXPECT_THROW(ini.GetBool("flag"), SimError);
  EXPECT_THROW(ini.GetUint("big"), SimError);
  EXPECT_THROW(ini.GetUint("missing"), SimError);
}

TEST(MalformedIni, GpuConfigRejectsBadValues) {
  EXPECT_THROW(
      GpuConfig::FromIni(IniFile::ParseString("[gpu]\nnum_sms = banana\n")),
      SimError);
  EXPECT_THROW(
      GpuConfig::FromIni(IniFile::ParseString("[gpu]\nnum_sms = 0\n")),
      SimError);
  // Zeros the models divide by or step by: a DRAM row of 0 bytes, a
  // writeback bus retiring nothing, a refresh every 0 cycles.
  for (const char* zero : {"[dram]\nrow_bytes = 0\n",
                           "[effects]\nwriteback_bus_width = 0\n",
                           "[effects]\ndram_refresh_interval = 0\n"}) {
    EXPECT_THROW(GpuConfig::FromIni(IniFile::ParseString(zero)), SimError)
        << zero;
  }
  // Past UINT_MAX a value is refused by name, not wrapped (to 68 SMs and
  // to 0 here).
  for (const char* big : {"4294967364", "4294967296"}) {
    try {
      GpuConfig::FromIni(IniFile::ParseString(
          std::string("[gpu]\nnum_sms = ") + big + "\n"));
      ADD_FAILURE() << big << " was accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("does not fit unsigned gpu.num_sms"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(GpuConfig::FromIni(IniFile::ParseFile("/nonexistent/gpu.ini")),
               SimError);
}

// ---------------------------------------------------------------------------
// Compact on-disk trace cache (DESIGN.md §14): truncated files, corrupted
// headers, stale versions and mismatched keys must raise TraceCacheError
// naming the path; malformed columns (out-of-range offsets, oversized lane
// counts) must raise SimError — never crash or allocate off a bad count.

Application SmallCacheApp() {
  WarpTrace w;
  w.EmitScalar(0x10, Opcode::kIAdd, 4, {1, 2, kNoReg}, kFullMask);
  LaneAddrs addrs;
  for (unsigned lane = 0; lane < kWarpSize; ++lane) {
    addrs.push_back(0x1000 + lane * 4);
  }
  w.EmitMem(0x18, Opcode::kLdGlobal, 5, {4, kNoReg, kNoReg}, kFullMask,
            addrs);
  w.EmitScalar(0x20, Opcode::kExit, kNoReg, {kNoReg, kNoReg, kNoReg},
               kFullMask);
  KernelInfo ki;
  ki.name = "cache_k";
  ki.num_ctas = 2;
  ki.warps_per_cta = 1;
  ki.threads_per_cta = 32;
  CtaTrace cta;
  cta.warps.push_back(std::move(w));
  Application app;
  app.name = "cache_app";
  app.kernels.push_back(
      std::make_shared<KernelTrace>(ki, std::vector<CtaTrace>{cta}));
  return app;
}

std::string WriteCacheFixture(const Fingerprint& key) {
  const std::string path =
      testing::TempDir() + "malformed_cache_fixture.sstc";
  WriteCompactApplication(SmallCacheApp(), key, path);
  return path;
}

TEST(MalformedCompactCache, TruncationAtEveryPrefixThrows) {
  const Fingerprint key{0x1111, 0x2222};
  const std::string path = WriteCacheFixture(key);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 32u);
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{16},
                           bytes.size() / 2, bytes.size() - 1}) {
    const std::string trunc_path =
        testing::TempDir() + "malformed_cache_trunc.sstc";
    std::ofstream out(trunc_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_THROW(ReadCompactApplication(trunc_path, key), TraceCacheError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(MalformedCompactCache, BadMagicAndVersionThrow) {
  const Fingerprint key{0x1111, 0x2222};
  const std::string path = WriteCacheFixture(key);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  auto rewrite = [&](std::size_t at, char c) {
    std::string copy = bytes;
    copy[at] = c;
    const std::string p = testing::TempDir() + "malformed_cache_mut.sstc";
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(copy.data(), static_cast<std::streamsize>(copy.size()));
    return p;
  };
  // Byte 0 is the 'S' of the "SSTC" magic; byte 4 the version LSB.
  EXPECT_THROW(ReadCompactApplication(rewrite(0, 'X'), key),
               TraceCacheError);
  EXPECT_THROW(ReadCompactApplication(rewrite(4, '\x7f'), key),
               TraceCacheError);
}

TEST(MalformedCompactCache, KeyMismatchThrowsAndNamesThePath) {
  const Fingerprint key{0x1111, 0x2222};
  const std::string path = WriteCacheFixture(key);
  const Fingerprint other{0x3333, 0x4444};
  try {
    ReadCompactApplication(path, other);
    FAIL() << "expected TraceCacheError";
  } catch (const TraceCacheError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(MalformedCompactCache, MissingFileThrowsTraceCacheError) {
  EXPECT_THROW(
      ReadCompactApplication("/nonexistent/trace.sstc", Fingerprint{}),
      TraceCacheError);
}

TEST(MalformedColumns, OutOfRangeOffsetsAndCountsThrow) {
  WarpTrace good;
  LaneAddrs addrs;
  addrs.push_back(0x100);
  good.EmitMem(0x10, Opcode::kLdGlobal, 5, {kNoReg, kNoReg, kNoReg}, 0x1,
               addrs);
  auto records = good.records();
  auto offsets = good.addr_offsets();
  auto pool = good.addr_pool();

  // Offset past the end of the pool.
  EXPECT_THROW(WarpTrace::FromColumns(
                   records, {static_cast<std::uint32_t>(pool.size() + 8)},
                   pool),
               SimError);
  // Offset table disagrees with the flags column.
  EXPECT_THROW(WarpTrace::FromColumns(records, {}, pool), SimError);
  // Lane count beyond kWarpSize: varint(33) followed by no deltas.
  EXPECT_THROW(WarpTrace::FromColumns(records, {0}, {33}), SimError);
  // Truncated pool entry: count promises deltas the pool does not hold.
  EXPECT_THROW(WarpTrace::FromColumns(records, {0}, {2, 0x80}), SimError);
}

// ---------------------------------------------------------------------------
// Service protocol (DESIGN.md §15): every malformed NDJSON request line a
// client can send must come back as a typed error response — never an
// exception out of the parse layer, never a dead daemon.

struct BadRequestLine {
  const char* label;
  const char* line;
  service::ErrorCode expect;
  const char* expect_in_message;  // "" = code check only
};

const std::vector<BadRequestLine>& BadRequestLines() {
  using service::ErrorCode;
  static const std::vector<BadRequestLine> cases = {
      // Framing: lines that are not one well-formed JSON object.
      {"empty_object_braces_only", "{", ErrorCode::kBadJson, ""},
      {"garbage_text", "simulate BFS please", ErrorCode::kBadJson, ""},
      {"truncated_object", R"({"op":"simulate","workload":)",
       ErrorCode::kBadJson, ""},
      {"array_not_object", R"(["simulate","BFS"])", ErrorCode::kBadJson,
       "object"},
      {"scalar_not_object", "42", ErrorCode::kBadJson, "object"},
      {"two_objects_one_line", R"({"op":"ping"}{"op":"ping"})",
       ErrorCode::kBadJson, ""},
      {"deep_nesting_bomb",
       R"({"op":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]})",
       ErrorCode::kBadJson, ""},
      // Field validation.
      {"unknown_op", R"({"op":"simulat","workload":"BFS"})",
       ErrorCode::kUnknownOp, "simulat"},
      {"unknown_field", R"({"op":"simulate","workload":"BFS","wat":1})",
       ErrorCode::kBadRequest, "wat"},
      {"missing_workload", R"({"op":"simulate","id":"x"})",
       ErrorCode::kBadRequest, "workload"},
      {"wrong_type_scale",
       R"({"op":"simulate","workload":"BFS","scale":"big"})",
       ErrorCode::kBadRequest, ""},
      {"negative_scale", R"({"op":"simulate","workload":"BFS","scale":-1})",
       ErrorCode::kBadRequest, ""},
      {"zero_iterations",
       R"({"op":"simulate","workload":"BFS","iterations":0})",
       ErrorCode::kBadRequest, ""},
      {"bad_level", R"({"op":"simulate","workload":"BFS","level":"turbo"})",
       ErrorCode::kBadRequest, "turbo"},
      // A 21-digit literal overflows uint64 inside the JSON number lexer
      // itself, so it surfaces as a framing error, not a field error.
      {"seed_overflow",
       R"({"op":"simulate","workload":"BFS","seed":99999999999999999999})",
       ErrorCode::kBadJson, "out of range"},
      // Oversized jobs: admission limits, named in the message.
      {"oversized_scale", R"({"op":"simulate","workload":"BFS","scale":50})",
       ErrorCode::kOversized, "scale"},
      {"oversized_iterations",
       R"({"op":"simulate","workload":"BFS","iterations":1000000})",
       ErrorCode::kOversized, "iterations"},
  };
  return cases;
}

TEST(MalformedServiceRequest, EveryCaseYieldsTypedErrorNotThrow) {
  for (const BadRequestLine& c : BadRequestLines()) {
    service::Request req;
    service::ErrorCode code;
    std::string message, id;
    bool ok = false;
    EXPECT_NO_THROW(
        ok = service::ParseRequestLine(c.line, service::Limits{}, &req, &code,
                                       &message, &id))
        << c.label;
    EXPECT_FALSE(ok) << c.label << " parsed successfully";
    EXPECT_EQ(code, c.expect)
        << c.label << ": got " << service::ToString(code) << " — " << message;
    if (*c.expect_in_message != '\0') {
      EXPECT_NE(message.find(c.expect_in_message), std::string::npos)
          << c.label << ": message '" << message << "' does not name '"
          << c.expect_in_message << "'";
    }
  }
}

TEST(MalformedServiceRequest, OversizedLineRejectedBeforeParsing) {
  service::Limits limits;
  limits.max_line_bytes = 128;
  std::string line = R"({"op":"simulate","workload":")";
  line.append(4096, 'A');
  line += R"("})";
  service::Request req;
  service::ErrorCode code;
  std::string message, id;
  EXPECT_FALSE(
      service::ParseRequestLine(line, limits, &req, &code, &message, &id));
  EXPECT_EQ(code, service::ErrorCode::kOversized);
}

TEST(MalformedServiceRequest, NearCapArrayLineGetsBadRequest) {
  // Arrays are validated element by element and then dropped: a line just
  // under the 1 MiB cap, made of wide and nested arrays, is answered with
  // bad_request for its unknown field, and the daemon answers the next
  // ping.
  const service::Limits limits;
  std::string line = R"({"op":"simulate","id":"arrays","workload":"BFS",)"
                     R"("pad":[)";
  const std::string nested = "[[[[[[[[[[0,1,2],[3]],[]]]]]]]]],";
  const std::string wide = "[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],";
  while (line.size() + nested.size() + wide.size() + 8 <
         limits.max_line_bytes) {
    line += nested;
    line += wide;
  }
  line += "0]}";
  ASSERT_LT(line.size(), limits.max_line_bytes);
  ASSERT_GT(line.size(), limits.max_line_bytes - 128);

  service::ServiceOptions opt;
  opt.threads = 1;
  service::SimulationService svc(opt);
  std::istringstream in(line + "\n" + R"({"op":"ping","id":"after"})" +
                        "\n" + R"({"op":"shutdown","id":"bye"})" + "\n");
  std::ostringstream out;
  EXPECT_TRUE(service::ServeLines(in, out, svc).shutdown);

  std::map<std::string, JsonValue> by_id;
  std::istringstream lines(out.str());
  std::string reply;
  while (std::getline(lines, reply)) {
    JsonValue v = ParseJson(reply);
    by_id[v.Find("id")->AsString()] = v;
  }
  ASSERT_EQ(by_id.count("arrays"), 1u);
  EXPECT_EQ(by_id["arrays"].Find("error")->AsString(), "bad_request");
  EXPECT_NE(by_id["arrays"].Find("message")->AsString().find("pad"),
            std::string::npos);
  ASSERT_EQ(by_id.count("after"), 1u);
  EXPECT_EQ(by_id["after"].Find("status")->AsString(), "pong");
}

TEST(MalformedServiceRequest, NestedArraysStillParseAsJson) {
  const JsonValue v = ParseJson(R"({"x":[1,[2,{}]]})");
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.Find("x"), nullptr);
  EXPECT_TRUE(v.Find("x")->is_array());
  // Dropped elements are still checked.
  EXPECT_THROW(ParseJson(R"({"x":[1,[2,{]]})"), SimError);
  EXPECT_THROW(ParseJson(R"({"x":[1,[2,]]})"), SimError);
}

// Run settings are not GpuConfig keys: a request config that sets one
// would otherwise reach the daemon's process-wide caches, its dump
// directories or its watchdog.
const char* const kRunSettingConfigs[] = {
    "[sim]\\ncycle_skip = false\\n",
    "[memo]\\nenabled = false\\n",
    "[memo]\\nmax_entries = 1\\n",
    "[memo]\\nmax_bytes = 1\\n",
    "[trace]\\ncache_dir = traces\\n",
    "[watchdog]\\nstall_cycles = 2\\n",
    "[watchdog]\\nwall_seconds = 100\\n",
    "[watchdog]\\ndump_dir = dumps\\n",
    "[degrade]\\non_hang = true\\n",
    "[degrade]\\nmax_retries = 1\\n",
};

// Machine configs the config layer must refuse, each with the level it
// is requested at: values that do not fit `unsigned` (they would wrap to
// 68 SMs, or to 0), `[effects] enabled`, which is not a key (the job's
// level decides the silicon effects), and zeros that crashed the daemon
// (row_bytes at basic) or hung the job (the effects at silicon).
struct BadMachineConfig {
  const char* config;
  const char* level;
};
const BadMachineConfig kBadMachineConfigs[] = {
    {"[gpu]\\nnum_sms = 4294967364\\n", "memory"},
    {"[gpu]\\nnum_sms = 4294967296\\n", "memory"},
    {"[effects]\\nenabled = true\\n", "memory"},
    {"[dram]\\nrow_bytes = 0\\n", "basic"},
    {"[effects]\\nwriteback_bus_width = 0\\n", "silicon"},
    {"[effects]\\ndram_refresh_interval = 0\\n", "silicon"},
};

TEST(MalformedServiceRequest, DaemonSurvivesFullMalformedStream) {
  // The whole table streamed at a live service, interleaved with jobs the
  // registry and config layers must reject (unknown workload, unknown INI
  // key, run-setting keys, out-of-range values, unknown preset) — every
  // line gets a typed error response and the daemon answers a healthy job
  // afterwards.
  service::ServiceOptions opt;
  opt.threads = 1;
  service::SimulationService svc(opt);

  std::ostringstream stream;
  for (const BadRequestLine& c : BadRequestLines()) stream << c.line << "\n";
  stream << R"({"op":"simulate","id":"ghost","workload":"NO_SUCH"})" << "\n";
  stream << R"({"op":"simulate","id":"badkey","workload":"NW",)"
         << R"("config":"[gpu]\nno_such_knob = 1\n"})" << "\n";
  for (std::size_t i = 0; i < std::size(kRunSettingConfigs); ++i) {
    stream << R"({"op":"simulate","id":"runkey)" << i
           << R"(","workload":"NW","config":")" << kRunSettingConfigs[i]
           << R"("})" << "\n";
  }
  for (std::size_t i = 0; i < std::size(kBadMachineConfigs); ++i) {
    stream << R"({"op":"simulate","id":"badcfg)" << i
           << R"(","workload":"NW","level":")" << kBadMachineConfigs[i].level
           << R"(","config":")" << kBadMachineConfigs[i].config << R"("})"
           << "\n";
  }
  stream << R"({"op":"simulate","id":"badpreset","workload":"NW",)"
         << R"("preset":"rtx9090"})" << "\n";
  stream << R"({"op":"ping","id":"after"})" << "\n";
  stream << R"({"op":"simulate","id":"healthy","workload":"NW",)"
         << R"("scale":0.05})" << "\n";
  stream << R"({"op":"shutdown","id":"bye"})" << "\n";

  std::istringstream in(stream.str());
  std::ostringstream out;
  service::ServeResult res = service::ServeLines(in, out, svc);
  EXPECT_TRUE(res.shutdown);

  std::map<std::string, std::string> error_by_id;
  std::map<std::string, std::string> message_by_id;
  std::string after_status;
  bool healthy_ok = false;
  std::size_t responses = 0;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    ++responses;
    JsonValue v = ParseJson(line);  // every response is valid JSON
    const JsonValue* id = v.Find("id");
    const JsonValue* err = v.Find("error");
    if (id != nullptr && err != nullptr) {
      error_by_id[id->AsString()] = err->AsString();
      message_by_id[id->AsString()] = v.Find("message")->AsString();
    }
    if (id != nullptr && id->AsString() == "after") {
      after_status = v.Find("status")->AsString();
    }
    if (id != nullptr && id->AsString() == "healthy") {
      healthy_ok = v.Find("ok")->AsBool();
    }
  }
  // One response per request line: the table, the rejected jobs, the
  // ping, the healthy job, the shutdown acknowledgement.
  EXPECT_EQ(responses,
            BadRequestLines().size() + std::size(kRunSettingConfigs) +
                std::size(kBadMachineConfigs) + 6);
  EXPECT_EQ(error_by_id["ghost"], "unknown_workload");
  EXPECT_EQ(error_by_id["badkey"], "bad_config");
  for (std::size_t i = 0; i < std::size(kRunSettingConfigs); ++i) {
    EXPECT_EQ(error_by_id["runkey" + std::to_string(i)], "bad_config")
        << kRunSettingConfigs[i];
  }
  for (std::size_t i = 0; i < std::size(kBadMachineConfigs); ++i) {
    const std::string id = "badcfg" + std::to_string(i);
    EXPECT_EQ(error_by_id[id], "bad_config") << kBadMachineConfigs[i].config;
    // A client's mistake names no source location.
    EXPECT_FALSE(std::regex_search(message_by_id[id],
                                   std::regex(R"(\.(cc|h):[0-9]+)")))
        << message_by_id[id];
  }
  EXPECT_EQ(error_by_id["badpreset"], "bad_config");
  EXPECT_EQ(after_status, "pong");
  EXPECT_TRUE(healthy_ok) << "daemon did not serve a healthy job after the "
                             "malformed stream";
}

}  // namespace
}  // namespace swiftsim
