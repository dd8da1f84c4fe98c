#include "mem/dram.h"

#include <gtest/gtest.h>

namespace swiftsim {
namespace {

DramConfig SmallDram() {
  DramConfig cfg;
  cfg.latency = 100;
  cfg.row_hit_latency = 40;
  cfg.row_bytes = 1024;
  cfg.bytes_per_cycle = 32;
  cfg.queue_depth = 4;
  return cfg;
}

MemRequest Read(Addr line, std::uint64_t id) {
  MemRequest r;
  r.line_addr = line;
  r.sector_mask = 0xF;
  r.id = id;
  return r;
}

MemRequest Write(Addr line) {
  MemRequest r;
  r.line_addr = line;
  r.sector_mask = 0xF;
  r.type = MemAccessType::kStore;
  return r;
}

Cycle RunUntilResponse(DramChannel& dram, Cycle now, Cycle limit) {
  for (; now < limit; ++now) {
    dram.Tick(now);
    if (!dram.responses().empty()) return now;
  }
  return limit;
}

TEST(Dram, ClosedRowLatency) {
  DramChannel dram(SmallDram(), 32, SiliconEffects{}, false);
  ASSERT_TRUE(dram.Enqueue(Read(0x0, 1)));
  const Cycle done = RunUntilResponse(dram, 0, 1000);
  // access latency 100 + transfer ceil(128/32)=4.
  EXPECT_EQ(done, 104u);
  EXPECT_EQ(dram.stats().row_misses, 1u);
}

TEST(Dram, RowHitIsFaster) {
  DramChannel dram(SmallDram(), 32, SiliconEffects{}, false);
  ASSERT_TRUE(dram.Enqueue(Read(0x0, 1)));
  Cycle now = RunUntilResponse(dram, 0, 1000);
  dram.responses().clear();
  // Same 1KB row.
  ASSERT_TRUE(dram.Enqueue(Read(0x80, 2)));
  const Cycle start = now + 1;
  const Cycle done = RunUntilResponse(dram, start, start + 1000);
  EXPECT_LT(done - start, 60u);  // row-hit latency 40 + transfer
  EXPECT_EQ(dram.stats().row_hits, 1u);
}

TEST(Dram, FrFcfsPrefersRowHitInWindow) {
  DramChannel dram(SmallDram(), 32, SiliconEffects{}, false);
  ASSERT_TRUE(dram.Enqueue(Read(0x0, 1)));      // opens row 0
  Cycle now = RunUntilResponse(dram, 0, 1000);
  dram.responses().clear();
  // Queue: row-1 (miss) then row-0 (hit). FR-FCFS serves the hit first.
  ASSERT_TRUE(dram.Enqueue(Read(0x400, 2)));
  ASSERT_TRUE(dram.Enqueue(Read(0x80, 3)));
  now = RunUntilResponse(dram, now + 1, now + 1000);
  ASSERT_EQ(dram.responses().size(), 1u);
  EXPECT_EQ(dram.responses().front().id, 3u);  // the row hit
}

TEST(Dram, WritesConsumeBandwidthSilently) {
  DramChannel dram(SmallDram(), 32, SiliconEffects{}, false);
  ASSERT_TRUE(dram.Enqueue(Write(0x0)));
  for (Cycle now = 0; now < 300; ++now) dram.Tick(now);
  EXPECT_TRUE(dram.responses().empty());
  EXPECT_EQ(dram.stats().writes, 1u);
  EXPECT_EQ(dram.stats().bytes, 128u);
  EXPECT_TRUE(dram.quiescent());
}

TEST(Dram, QueueDepthBackpressure) {
  DramChannel dram(SmallDram(), 32, SiliconEffects{}, false);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(dram.Enqueue(Read(static_cast<Addr>(i) * 0x1000, i + 1)));
  }
  EXPECT_FALSE(dram.Enqueue(Read(0x9000, 9)));
  EXPECT_EQ(dram.stats().enqueue_stalls, 1u);
}

TEST(Dram, RefreshBlocksChannelWhenEnabled) {
  SiliconEffects fx;
  fx.dram_refresh_interval = 50;
  fx.dram_refresh_penalty = 500;
  DramChannel with_refresh(SmallDram(), 32, fx, true);
  DramChannel without(SmallDram(), 32, SiliconEffects{}, false);
  // Enqueue after the refresh point so the penalty delays service.
  for (Cycle now = 0; now < 60; ++now) {
    with_refresh.Tick(now);
    without.Tick(now);
  }
  ASSERT_TRUE(with_refresh.Enqueue(Read(0x0, 1)));
  ASSERT_TRUE(without.Enqueue(Read(0x0, 1)));
  const Cycle t_with = RunUntilResponse(with_refresh, 60, 5000);
  const Cycle t_without = RunUntilResponse(without, 60, 5000);
  EXPECT_GT(t_with, t_without);
  EXPECT_GE(with_refresh.stats().refreshes, 1u);
}

TEST(Dram, ResponsesPreserveRequestIdentity) {
  DramChannel dram(SmallDram(), 32, SiliconEffects{}, false);
  MemRequest r = Read(0x1280, 77);
  r.sm = 5;
  r.sector_mask = 0x6;
  ASSERT_TRUE(dram.Enqueue(r));
  RunUntilResponse(dram, 0, 1000);
  ASSERT_EQ(dram.responses().size(), 1u);
  const MemResponse& resp = dram.responses().front();
  EXPECT_EQ(resp.id, 77u);
  EXPECT_EQ(resp.sm, 5u);
  EXPECT_EQ(resp.sector_mask, 0x6u);
  EXPECT_EQ(resp.line_addr, 0x1280u);
}

}  // namespace
}  // namespace swiftsim
