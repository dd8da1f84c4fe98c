// Error handling used across Swift-Sim.
//
// Configuration / input errors (bad config file, malformed trace) throw
// SimError with a descriptive message; internal invariant violations use
// SS_ASSERT which also throws so tests can observe them. Hot simulation
// paths use plain asserts via SS_DCHECK (compiled out in release).
//
// Failures raised while a simulation driver is running carry the driver's
// position (kernel name, SM id, cycle) via the thread-local ScopedSimContext
// so that a check buried deep inside a module names the simulated location,
// not just the source line. Forward-progress failures (watchdog trips,
// wedged drivers) raise the SimHangError subtype, which additionally names
// the diagnostic dump written for the hang (DESIGN.md §11).
#pragma once

#include <cassert>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace swiftsim {

/// Exception type for all user-visible Swift-Sim failures.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// A simulation that stopped making forward progress: the watchdog saw no
/// retired instructions or drained requests for a full window, the wall
/// clock budget expired, or the driver wedged with no future events. The
/// `dump_path` names the JSON diagnostic dump, empty when no dump
/// directory was configured.
class SimHangError : public SimError {
 public:
  enum class Kind {
    kNoProgress,  // watchdog window elapsed with a frozen progress signature
    kWallClock,   // per-app wall-clock budget expired
    kWedged,      // no progress and no future calendar events
  };

  SimHangError(Kind kind, const std::string& what, std::string dump_path)
      : SimError(what), kind_(kind), dump_path_(std::move(dump_path)) {}

  Kind kind() const { return kind_; }
  const std::string& dump_path() const { return dump_path_; }

 private:
  Kind kind_;
  std::string dump_path_;
};

namespace detail {

/// One frame of driver position, published thread-locally by the active
/// driver so ThrowSimError can enrich any failure raised beneath it. The
/// cycle is read through a pointer at throw time — the driver updates its
/// clock for free instead of re-publishing every cycle.
struct SimContextFrame {
  const char* kernel = nullptr;       // nullptr = no driver context
  int sm = -1;                        // -1 = not inside an SM tick
  const std::uint64_t* cycle = nullptr;
};

inline thread_local SimContextFrame g_sim_context;

inline void AppendSimContext(std::ostringstream& os) {
  const SimContextFrame& c = g_sim_context;
  if (c.kernel == nullptr) return;
  os << " [kernel=" << c.kernel;
  if (c.sm >= 0) os << " sm=" << c.sm;
  if (c.cycle != nullptr) os << " cycle=" << *c.cycle;
  os << "]";
}

[[noreturn]] inline void ThrowSimError(const char* file, int line,
                                       const std::string& msg) {
  std::ostringstream os;
  os << file << ":" << line << ": " << msg;
  AppendSimContext(os);
  throw SimError(os.str());
}

}  // namespace detail

/// RAII publisher of the driver position for the current thread. The
/// kernel name must outlive the scope; nesting restores the outer frame.
class ScopedSimContext {
 public:
  ScopedSimContext(const char* kernel, const std::uint64_t* cycle)
      : prev_(detail::g_sim_context) {
    detail::g_sim_context = {kernel, -1, cycle};
  }
  ~ScopedSimContext() { detail::g_sim_context = prev_; }

  ScopedSimContext(const ScopedSimContext&) = delete;
  ScopedSimContext& operator=(const ScopedSimContext&) = delete;

  /// Marks which SM the current thread is ticking (-1 = none). Cheap
  /// enough for per-SM granularity in the tick loop.
  static void SetSm(int sm) { detail::g_sim_context.sm = sm; }

 private:
  detail::SimContextFrame prev_;
};

}  // namespace swiftsim

/// Throws SimError with message `msg` if `cond` is false. Always evaluated.
#define SS_CHECK(cond, msg)                                        \
  do {                                                             \
    if (!(cond)) {                                                 \
      ::swiftsim::detail::ThrowSimError(__FILE__, __LINE__,        \
                                        std::string("check failed: " #cond \
                                                    " — ") +       \
                                            (msg));                \
    }                                                              \
  } while (0)

/// Throws SimError with message `msg` alone if `cond` is false: for checks
/// on user input (config and plan files, sweep specs, daemon requests),
/// whose errors name the field, not a source line. Always evaluated.
#define SS_REQUIRE(cond, msg)                     \
  do {                                            \
    if (!(cond)) throw ::swiftsim::SimError(msg); \
  } while (0)

/// Internal invariant; throws so unit tests can exercise failure paths.
#define SS_ASSERT(cond)                                            \
  do {                                                             \
    if (!(cond)) {                                                 \
      ::swiftsim::detail::ThrowSimError(__FILE__, __LINE__,        \
                                        "invariant violated: " #cond); \
    }                                                              \
  } while (0)

/// Debug-only check for hot paths.
#define SS_DCHECK(cond) assert(cond)
