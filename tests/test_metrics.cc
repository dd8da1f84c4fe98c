#include "sim/metrics.h"

#include <gtest/gtest.h>

#include "common/status.h"

namespace swiftsim {
namespace {

TEST(Metrics, RegisterAndSnapshot) {
  MetricsGatherer g;
  std::uint64_t a = 1, b = 2;
  g.Register("sm0", "issued", &a);
  g.Register("sm1", "issued", &b);
  a = 10;  // live variable: snapshot sees current value
  const auto snap = g.Snapshot();
  EXPECT_EQ(snap.at("sm0.issued"), 10u);
  EXPECT_EQ(snap.at("sm1.issued"), 2u);
  EXPECT_EQ(g.size(), 2u);
}

TEST(Metrics, DuplicateRegistrationThrows) {
  MetricsGatherer g;
  std::uint64_t a = 0;
  g.Register("m", "c", &a);
  EXPECT_THROW(g.Register("m", "c", &a), SimError);
}

}  // namespace
}  // namespace swiftsim
