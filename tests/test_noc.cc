#include "mem/noc.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"

namespace swiftsim {
namespace {

NocConfig SmallNoc() {
  NocConfig cfg;
  cfg.latency = 4;
  cfg.bytes_per_cycle = 32;
  cfg.input_queue_depth = 2;
  cfg.output_queue_depth = 4;
  return cfg;
}

/// Every packet occupies the wire for `Bytes` bytes.
template <unsigned Bytes>
struct FixedBytes {
  unsigned operator()(const MemRequest&) const { return Bytes; }
};

MemRequest Req(Addr line, std::uint32_t sectors, bool store = false) {
  MemRequest r;
  r.line_addr = line;
  r.sector_mask = sectors;
  r.type = store ? MemAccessType::kStore : MemAccessType::kLoad;
  r.id = 1;
  return r;
}

TEST(Xbar, DeliversAfterSerializationPlusLatency) {
  XbarChannel<MemRequest, FixedBytes<8>> net(2, 2, SmallNoc());
  ASSERT_TRUE(net.Inject(0, 1, Req(0x1000, 0x1)));
  Cycle now = 0;
  // 8 bytes at 32 B/cycle = 1 serialization cycle + 4 latency.
  for (; now < 5; ++now) {
    net.Tick(now);
    EXPECT_TRUE(net.ejected(1).empty()) << now;
  }
  net.Tick(now);
  ASSERT_EQ(net.ejected(1).size(), 1u);
  EXPECT_EQ(net.ejected(1).front().line_addr, 0x1000u);
}

TEST(Xbar, LargePacketsOccupyThePortLonger) {
  // 136-byte packets at 32 B/cycle serialize for 5 cycles each.
  XbarChannel<MemRequest, FixedBytes<136>> net(1, 1, SmallNoc());
  ASSERT_TRUE(net.Inject(0, 0, Req(0x1000, 0xF)));
  ASSERT_TRUE(net.Inject(0, 0, Req(0x2000, 0xF)));
  Cycle now = 0;
  std::vector<Cycle> arrival;
  for (; now < 30 && arrival.size() < 2; ++now) {
    net.Tick(now);
    while (!net.ejected(0).empty()) {
      arrival.push_back(now);
      net.ejected(0).pop_front();
    }
  }
  ASSERT_EQ(arrival.size(), 2u);
  EXPECT_GE(arrival[1] - arrival[0], 5u);  // second waited for the port
}

TEST(Xbar, InjectionQueueBackpressure) {
  XbarChannel<MemRequest, FixedBytes<8>> net(1, 1, SmallNoc());
  EXPECT_TRUE(net.Inject(0, 0, Req(0x1000, 0x1)));
  EXPECT_TRUE(net.Inject(0, 0, Req(0x2000, 0x1)));
  EXPECT_FALSE(net.Inject(0, 0, Req(0x3000, 0x1)));  // depth 2
  EXPECT_EQ(net.stats().inject_stalls, 1u);
}

TEST(Xbar, EjectionQueueBoundsInFlight) {
  NocConfig cfg = SmallNoc();
  cfg.output_queue_depth = 1;
  XbarChannel<MemRequest, FixedBytes<8>> net(2, 1, cfg);
  ASSERT_TRUE(net.Inject(0, 0, Req(0x1000, 0x1)));
  ASSERT_TRUE(net.Inject(1, 0, Req(0x2000, 0x1)));
  for (Cycle now = 0; now < 20; ++now) net.Tick(now);
  // Only one packet can sit in the ejection queue; the other waits until
  // the consumer pops.
  EXPECT_EQ(net.ejected(0).size(), 1u);
  net.ejected(0).pop_front();
  for (Cycle now = 20; now < 40; ++now) net.Tick(now);
  EXPECT_EQ(net.ejected(0).size(), 1u);
}

TEST(Xbar, RoundRobinIsFairAcrossInputs) {
  XbarChannel<MemRequest, FixedBytes<32>> net(2, 1, SmallNoc());
  unsigned delivered_from[2] = {0, 0};
  Cycle now = 0;
  for (unsigned round = 0; round < 50; ++round) {
    net.Inject(0, 0, Req(0x1000, 0x1));
    net.Inject(1, 0, Req(0x2000, 0x1));
    net.Tick(now++);
    while (!net.ejected(0).empty()) {
      ++delivered_from[net.ejected(0).front().line_addr == 0x1000 ? 0 : 1];
      net.ejected(0).pop_front();
    }
  }
  for (Cycle extra = 0; extra < 20; ++extra) {
    net.Tick(now++);
    while (!net.ejected(0).empty()) {
      ++delivered_from[net.ejected(0).front().line_addr == 0x1000 ? 0 : 1];
      net.ejected(0).pop_front();
    }
  }
  EXPECT_GT(delivered_from[0], 10u);
  EXPECT_GT(delivered_from[1], 10u);
}

TEST(Interconnect, RequestAndResponsePaths) {
  Interconnect noc(2, 3, SmallNoc(), 32);
  ASSERT_TRUE(noc.InjectRequest(0, 2, Req(0x1000, 0x3)));
  MemResponse resp{7, 0x1000, 0x3, 1};
  ASSERT_TRUE(noc.InjectResponse(2, resp));
  EXPECT_FALSE(noc.quiescent());
  for (Cycle now = 0; now < 20; ++now) noc.Tick(now);
  ASSERT_EQ(noc.requests_at(2).size(), 1u);
  ASSERT_EQ(noc.responses_at(1).size(), 1u);
  EXPECT_EQ(noc.responses_at(1).front().id, 7u);
  noc.requests_at(2).pop_front();
  noc.responses_at(1).pop_front();
  EXPECT_TRUE(noc.quiescent());
}

TEST(Interconnect, StorePayloadCountsBytes) {
  Interconnect noc(1, 1, SmallNoc(), 32);
  noc.InjectRequest(0, 0, Req(0x1000, 0xF, /*store=*/true));
  for (Cycle now = 0; now < 20; ++now) noc.Tick(now);
  // Header (8) + 4 sectors x 32B payload.
  EXPECT_EQ(noc.request_stats().bytes, 8u + 128u);
}

// --- Differential test against a full-scan reference ----------------------
// XbarChannel walks only its busy ports. RefXbar is the channel as it was
// before those walks: every cycle it visits every output to deliver and
// every input (from the rotor) to arbitrate, and clears a per-output grant
// flag afterwards. Both are driven with the same seeded traffic, consumer
// pops and FastForward jumps, and must agree cycle by cycle.
class RefXbar {
 public:
  RefXbar(unsigned inputs, unsigned outputs, const NocConfig& cfg)
      : cfg_(cfg), inputs_(inputs), outputs_(outputs), eject_(outputs) {}

  bool Inject(unsigned in, unsigned out, const MemRequest& pkt) {
    if (inputs_[in].size() >= cfg_.input_queue_depth) {
      ++stats_.inject_stalls;
      return false;
    }
    inputs_[in].push_back(Flit{pkt, out});
    ++stats_.injected;
    return true;
  }

  void Tick(Cycle now) {
    for (unsigned o = 0; o < outputs_.size(); ++o) {
      Output& out = outputs_[o];
      while (!out.in_flight.empty() && out.in_flight.front().ready <= now &&
             eject_[o].size() < cfg_.output_queue_depth) {
        eject_[o].push_back(out.in_flight.front().pkt);
        out.in_flight.pop_front();
        ++stats_.delivered;
      }
    }
    const unsigned n = static_cast<unsigned>(inputs_.size());
    for (unsigned k = 0, idx = rr_start_; k < n; ++k, idx = (idx + 1) % n) {
      std::deque<Flit>& q = inputs_[idx];
      if (q.empty()) continue;
      const Flit head = q.front();
      Output& out = outputs_[head.out];
      if (out.busy_until > now || out.granted ||
          out.in_flight.size() + eject_[head.out].size() >=
              cfg_.output_queue_depth) {
        ++stats_.output_stalls;
        continue;
      }
      const unsigned bytes = PacketBytes(head.pkt);
      const Cycle ser = CeilDiv(bytes, cfg_.bytes_per_cycle);
      out.busy_until = now + ser;
      out.granted = true;
      out.in_flight.push_back(InFlight{head.pkt, now + ser + cfg_.latency});
      stats_.bytes += bytes;
      q.pop_front();
    }
    for (Output& out : outputs_) out.granted = false;
    rr_start_ = (rr_start_ + 1) % n;
  }

  Cycle NextEventAfter(Cycle now) const {
    for (const auto& q : inputs_) {
      if (!q.empty()) return now + 1;
    }
    for (const auto& e : eject_) {
      if (!e.empty()) return now + 1;
    }
    Cycle ev = ~Cycle{0};
    for (const Output& out : outputs_) {
      if (!out.in_flight.empty()) {
        ev = std::min(ev, std::max(out.in_flight.front().ready, now + 1));
      }
    }
    return ev;
  }

  void FastForward(Cycle cycles) {
    const unsigned n = static_cast<unsigned>(inputs_.size());
    rr_start_ = static_cast<unsigned>((rr_start_ + cycles % n) % n);
  }

  bool quiescent() const { return NextEventAfter(0) == ~Cycle{0}; }

  std::deque<MemRequest>& ejected(unsigned out) { return eject_[out]; }
  const NocStats& stats() const { return stats_; }

  static unsigned PacketBytes(const MemRequest& r) {
    return 8 + PopCount(r.sector_mask) * 32;
  }
  /// PacketBytes as the channel's wire-size type.
  struct WireSize {
    unsigned operator()(const MemRequest& r) const { return PacketBytes(r); }
  };

 private:
  struct Flit {
    MemRequest pkt;
    unsigned out = 0;
  };
  struct InFlight {
    MemRequest pkt;
    Cycle ready = 0;
  };
  struct Output {
    std::deque<InFlight> in_flight;
    Cycle busy_until = 0;
    bool granted = false;
  };

  NocConfig cfg_;
  std::vector<std::deque<Flit>> inputs_;
  std::vector<Output> outputs_;
  std::vector<std::deque<MemRequest>> eject_;
  unsigned rr_start_ = 0;
  NocStats stats_;
};

void ExpectSameStats(const NocStats& a, const NocStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.injected, b.injected) << where;
  EXPECT_EQ(a.delivered, b.delivered) << where;
  EXPECT_EQ(a.bytes, b.bytes) << where;
  EXPECT_EQ(a.inject_stalls, b.inject_stalls) << where;
  EXPECT_EQ(a.output_stalls, b.output_stalls) << where;
}

// Runs `cycles` cycles of seeded traffic through both channels. Traffic
// comes in bursts separated by idle gaps, so the channels alternate
// between congestion (stalls on busy ports and full queues) and drained
// spans the driver fast-forwards over, as the GPU model's calendar does.
void RunDifferential(unsigned inputs, unsigned outputs, const NocConfig& cfg,
                     std::uint64_t seed, Cycle cycles) {
  const std::string shape = std::to_string(inputs) + "x" +
                            std::to_string(outputs) + " seed " +
                            std::to_string(seed);
  XbarChannel<MemRequest, RefXbar::WireSize> net(inputs, outputs, cfg);
  RefXbar ref(inputs, outputs, cfg);
  Rng rng(seed);
  Addr next_id = 1;
  std::uint64_t jumps = 0;
  for (Cycle now = 0; now < cycles;) {
    const std::string where = shape + " cycle " + std::to_string(now);
    const bool burst = now % 400 < 40;
    if (burst) {
      const unsigned injections = static_cast<unsigned>(rng.Below(inputs));
      for (unsigned k = 0; k < injections; ++k) {
        const unsigned in = static_cast<unsigned>(rng.Below(inputs));
        // Skewed destinations build hot spots on low-numbered outputs.
        const unsigned out = static_cast<unsigned>(
            rng.Bernoulli(0.3) ? rng.Below(std::min(outputs, 3u))
                               : rng.Below(outputs));
        MemRequest pkt = Req(next_id++ << 7, 0, false);
        pkt.sector_mask = static_cast<std::uint32_t>(rng.Range(1, 15));
        ASSERT_EQ(net.Inject(in, out, pkt), ref.Inject(in, out, pkt))
            << where;
      }
    }
    net.Tick(now);
    ref.Tick(now);
    // During a burst the consumer drains some ejection queues, leaving
    // others to fill and back-pressure the wires; between bursts it
    // drains them all.
    for (unsigned o = 0; o < outputs; ++o) {
      auto& got = net.ejected(o);
      auto& want = ref.ejected(o);
      ASSERT_EQ(got.size(), want.size()) << where << " output " << o;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].line_addr, want[i].line_addr)
            << where << " output " << o;
      }
      std::size_t pops = burst ? rng.Below(3) : want.size();
      while (pops-- > 0 && !want.empty()) {
        got.pop_front();
        want.pop_front();
      }
    }
    ExpectSameStats(net.stats(), ref.stats(), where);
    const Cycle wake = net.NextEventAfter(now);
    ASSERT_EQ(wake, ref.NextEventAfter(now)) << where;
    ASSERT_EQ(net.quiescent(), ref.quiescent()) << where;
    if (!burst && wake > now + 1) {
      // Jump as the skip driver would, replaying the rotors.
      const Cycle target = std::min(wake, cycles);
      if (target > now + 1) {
        net.FastForward(target - now - 1);
        ref.FastForward(target - now - 1);
        ++jumps;
        now = target;
        continue;
      }
    }
    ++now;
  }
  EXPECT_GT(net.stats().delivered, 0u) << shape;
  EXPECT_GT(net.stats().output_stalls, 0u) << shape;
  EXPECT_GT(net.stats().inject_stalls, 0u) << shape;
  EXPECT_GT(jumps, 0u) << shape;
}

TEST(Xbar, BusyPortWalksMatchFullScanReference) {
  NocConfig tight;
  tight.latency = 6;
  tight.bytes_per_cycle = 16;
  tight.input_queue_depth = 2;
  tight.output_queue_depth = 3;
  for (const NocConfig& cfg : {NocConfig{}, tight}) {
    for (std::uint64_t seed : {11u, 12u}) {
      RunDifferential(68, 22, cfg, seed, 4000);
      RunDifferential(22, 68, cfg, seed, 4000);
    }
  }
}

}  // namespace
}  // namespace swiftsim
