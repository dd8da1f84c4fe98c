// On-chip interconnect between the SMs and the L2/memory partitions,
// modeled as two crossbar channels (request and response direction). Each
// channel has bounded per-input injection queues, per-output serialization
// (a packet occupies its output port for ceil(bytes / bytes_per_cycle)
// cycles), a fixed traversal latency, and bounded ejection queues with
// backpressure. Arbitration across inputs is rotating round-robin.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitutil.h"
#include "common/ring_buffer.h"
#include "common/status.h"
#include "common/types.h"
#include "config/gpu_config.h"
#include "mem/request.h"

namespace swiftsim {

struct NocStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::uint64_t inject_stalls = 0;   // rejected injections (queue full)
  std::uint64_t output_stalls = 0;   // head blocked on busy port / full queue
};

/// Wire sizes of the two directions: requests carry a header plus store
/// payload; responses carry the filled sectors. Header flits are 8 bytes.
struct RequestWireSize {
  unsigned sector_bytes = 32;
  unsigned operator()(const MemRequest& req) const {
    return 8 + (req.is_store() ? req.bytes(sector_bytes) : 0);
  }
};
struct ResponseWireSize {
  unsigned sector_bytes = 32;
  unsigned operator()(const MemResponse& resp) const {
    return 8 + PopCount(resp.sector_mask) * sector_bytes;
  }
};

/// One direction of the crossbar, carrying packets of type T. `WireSize`
/// is a callable type giving a packet's wire size in bytes for
/// serialization; arbitration calls it once per grant, so it is a template
/// parameter the compiler can inline rather than an indirect call.
template <typename T, typename WireSize>
class XbarChannel {
 public:
  XbarChannel(unsigned num_inputs, unsigned num_outputs,
              const NocConfig& cfg, WireSize bytes_of = {})
      : cfg_(cfg), bytes_of_(bytes_of), inputs_(num_inputs),
        outputs_(num_outputs), eject_(num_outputs), rr_start_(0),
        busy_inputs_(num_inputs), busy_outputs_(num_outputs) {
    SS_CHECK(num_inputs > 0 && num_outputs > 0,
             "XbarChannel needs ports on both sides");
    // Queue depths are config bounds; reserving them up front keeps the
    // per-cycle path allocation-free.
    for (Input& in : inputs_) in.q.Reserve(cfg_.input_queue_depth);
    for (Output& out : outputs_) out.in_flight.Reserve(cfg_.output_queue_depth);
    for (auto& e : eject_) e.Reserve(cfg_.output_queue_depth);
  }

  /// Queues a packet at input port `in` destined for output `out`.
  /// Returns false (no state change) when the injection queue is full.
  bool Inject(unsigned in, unsigned out, const T& pkt) {
    SS_DCHECK(in < inputs_.size() && out < outputs_.size());
    if (inputs_[in].q.size() >= cfg_.input_queue_depth) {
      ++stats_.inject_stalls;
      return false;
    }
    inputs_[in].q.push_back(Flit{pkt, out});
    busy_inputs_.Insert(in);
    ++stats_.injected;
    return true;
  }

  /// Advances arbitration, serialization and delivery by one cycle. Both
  /// phases walk only the ports that hold work (busy_outputs_,
  /// busy_inputs_), in the order a scan over every port would visit them.
  void Tick(Cycle now) {
    // Deliver in-flight packets whose traversal completed.
    busy_outputs_.ForEach([&](unsigned o) {
      Output& out = outputs_[o];
      while (!out.in_flight.empty() && out.in_flight.front().ready <= now &&
             eject_[o].size() < cfg_.output_queue_depth) {
        eject_[o].push_back(out.in_flight.front().pkt);
        out.in_flight.pop_front();
        ++stats_.delivered;
      }
      if (out.in_flight.empty()) busy_outputs_.Erase(o);
    });
    // Arbitrate: rotating priority over inputs; each output accepts one
    // packet per cycle and serializes it on the port. The rotor below
    // advances whether or not any input is queued.
    busy_inputs_.ForEachFrom(rr_start_, [&](unsigned idx) {
      Input& in = inputs_[idx];
      Flit& head = in.q.front();
      Output& out = outputs_[head.out];
      if (out.busy_until > now || out.granted_at == now) {
        ++stats_.output_stalls;
        return;
      }
      // Do not overrun the ejection side: bound total queued+in-flight.
      if (out.in_flight.size() + eject_[head.out].size() >=
          cfg_.output_queue_depth) {
        ++stats_.output_stalls;
        return;
      }
      const unsigned bytes = bytes_of_(head.pkt);
      const Cycle ser = CeilDiv(bytes, cfg_.bytes_per_cycle);
      out.busy_until = now + ser;
      out.granted_at = now;
      out.in_flight.push_back(InFlight{head.pkt, now + ser + cfg_.latency});
      busy_outputs_.Insert(head.out);
      stats_.bytes += bytes;
      in.q.pop_front();
      if (in.q.empty()) busy_inputs_.Erase(idx);
    });
    rr_start_ = (rr_start_ + 1) % static_cast<unsigned>(inputs_.size());
  }

  /// Delivered packets at output `out`; consumer pops from the front.
  RingBuffer<T>& ejected(unsigned out) { return eject_[out]; }

  /// NextWakeCycle contract: the earliest cycle > `now` at which a Tick
  /// can change observable state. Queued flits arbitrate and ejected
  /// packets await their consumer every cycle (now + 1); otherwise the
  /// only future event is the head in-flight packet per output (the
  /// in-flight ring is ready-ordered per output, so heads suffice).
  /// Returns kNever (~Cycle{0}) when the channel is fully drained.
  Cycle NextEventAfter(Cycle now) const {
    if (!busy_inputs_.Empty()) return now + 1;
    for (const auto& e : eject_) {
      if (!e.empty()) return now + 1;
    }
    Cycle ev = ~Cycle{0};
    busy_outputs_.ForEach([&](unsigned o) {
      ev = std::min(ev, std::max(outputs_[o].in_flight.front().ready, now + 1));
    });
    return ev;
  }

  /// Replays the rotor advancement of `cycles` elided Tick calls. Only
  /// valid while NextEventAfter proves those Ticks would have been pure
  /// rotor rotations (no queued flits, no deliverable in-flight packets),
  /// which keeps skip-mode arbitration bit-identical to per-cycle ticking.
  void FastForward(Cycle cycles) {
    const unsigned n = static_cast<unsigned>(inputs_.size());
    rr_start_ = static_cast<unsigned>((rr_start_ + cycles % n) % n);
  }

  bool quiescent() const {
    if (!busy_inputs_.Empty() || !busy_outputs_.Empty()) return false;
    for (const auto& e : eject_) {
      if (!e.empty()) return false;
    }
    return true;
  }

  const NocStats& stats() const { return stats_; }

  /// Total packets resident in the channel (input queues + wires +
  /// ejection queues); occupancy snapshot for diagnostic dumps.
  std::size_t occupancy() const {
    std::size_t n = 0;
    for (const Input& in : inputs_) n += in.q.size();
    for (const Output& out : outputs_) n += out.in_flight.size();
    for (const auto& e : eject_) n += e.size();
    return n;
  }

 private:
  struct Flit {
    T pkt{};
    unsigned out = 0;
  };
  struct InFlight {
    T pkt{};
    Cycle ready = 0;
  };
  struct Input {
    RingBuffer<Flit> q;
  };
  struct Output {
    RingBuffer<InFlight> in_flight;
    Cycle busy_until = 0;
    Cycle granted_at = ~Cycle{0};  // cycle of the last grant
  };

  NocConfig cfg_;
  [[no_unique_address]] WireSize bytes_of_;
  std::vector<Input> inputs_;
  std::vector<Output> outputs_;
  std::vector<RingBuffer<T>> eject_;
  unsigned rr_start_;
  IndexSet busy_inputs_;   // inputs with a non-empty injection queue
  IndexSet busy_outputs_;  // outputs with packets on the wire
  NocStats stats_;
};

/// The full interconnect: SMs -> partitions (requests) and partitions ->
/// SMs (responses).
class Interconnect {
 public:
  Interconnect(unsigned num_sms, unsigned num_partitions,
               const NocConfig& cfg, unsigned sector_bytes)
      : req_net_(num_sms, num_partitions, cfg, {sector_bytes}),
        resp_net_(num_partitions, num_sms, cfg, {sector_bytes}) {}

  bool InjectRequest(SmId sm, unsigned partition, const MemRequest& req) {
    return req_net_.Inject(sm, partition, req);
  }
  bool InjectResponse(unsigned partition, const MemResponse& resp) {
    return resp_net_.Inject(partition, resp.sm, resp);
  }

  void Tick(Cycle now) {
    req_net_.Tick(now);
    resp_net_.Tick(now);
  }

  RingBuffer<MemRequest>& requests_at(unsigned partition) {
    return req_net_.ejected(partition);
  }
  RingBuffer<MemResponse>& responses_at(SmId sm) {
    return resp_net_.ejected(sm);
  }

  bool quiescent() const {
    return req_net_.quiescent() && resp_net_.quiescent();
  }

  /// Earliest cycle > `now` at which either direction has work.
  Cycle NextEventAfter(Cycle now) const {
    return std::min(req_net_.NextEventAfter(now),
                    resp_net_.NextEventAfter(now));
  }

  /// Replays the arbitration rotors of `cycles` elided Tick calls.
  void FastForward(Cycle cycles) {
    req_net_.FastForward(cycles);
    resp_net_.FastForward(cycles);
  }

  const NocStats& request_stats() const { return req_net_.stats(); }
  const NocStats& response_stats() const { return resp_net_.stats(); }

  // Occupancy snapshot for diagnostic dumps (DESIGN.md §11).
  std::size_t request_occupancy() const { return req_net_.occupancy(); }
  std::size_t response_occupancy() const { return resp_net_.occupancy(); }

 private:
  XbarChannel<MemRequest, RequestWireSize> req_net_;
  XbarChannel<MemResponse, ResponseWireSize> resp_net_;
};

}  // namespace swiftsim
