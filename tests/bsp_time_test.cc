// The BSP time model: per-round load and latency charges over a metered
// cost report.

#include <gtest/gtest.h>

#include "mpc/bsp_time.h"
#include "mpc/cluster.h"

namespace mpcqp {
namespace {

TEST(BspTimeTest, ChargesLoadAndLatencyPerRound) {
  Cluster cluster(4, 1);
  cluster.BeginRound("a");
  cluster.RecordMessage(0, 1, 1000, 1000);
  cluster.EndRound();
  cluster.BeginRound("b");
  cluster.RecordMessage(1, 2, 500, 500);
  cluster.EndRound();
  BspParameters params;
  params.seconds_per_tuple = 0.001;
  params.round_latency_seconds = 2.0;
  // (1000*0.001 + 2) + (500*0.001 + 2) = 5.5.
  EXPECT_NEAR(EstimateBspSeconds(cluster.cost_report(), params), 5.5, 1e-9);
  EXPECT_FALSE(BspBreakdown(cluster.cost_report(), params).empty());
}

TEST(BspTimeTest, LatencyFlipsTheOneRoundVsMultiRoundChoice) {
  // Two synthetic reports: 1 round at load 3000 vs 3 rounds at load 500.
  Cluster one(2, 1);
  one.BeginRound("r");
  one.RecordMessage(0, 1, 3000, 3000);
  one.EndRound();
  Cluster many(2, 1);
  for (int r = 0; r < 3; ++r) {
    many.BeginRound("r");
    many.RecordMessage(0, 1, 500, 500);
    many.EndRound();
  }
  BspParameters fast_net;
  fast_net.seconds_per_tuple = 1e-3;
  fast_net.round_latency_seconds = 0.0;
  EXPECT_GT(EstimateBspSeconds(one.cost_report(), fast_net),
            EstimateBspSeconds(many.cost_report(), fast_net));
  BspParameters slow_sync = fast_net;
  slow_sync.round_latency_seconds = 10.0;
  EXPECT_LT(EstimateBspSeconds(one.cost_report(), slow_sync),
            EstimateBspSeconds(many.cost_report(), slow_sync));
}

}  // namespace
}  // namespace mpcqp
