// Tests for the simulation-support utilities: CostStatistic /
// ScopedCostTimer (util/cost_statistic.h) and the pipeline's
// StageStatsCollector observer adapter (assay/pipeline.h).
#include "util/cost_statistic.h"

#include <gtest/gtest.h>

#include "assay/pipeline.h"

namespace dmfb {
namespace {

TEST(CostStatisticTest, AccumulatesMinAvgMaxCount) {
  CostStatistic stat;
  EXPECT_EQ(stat.count, 0);
  EXPECT_EQ(stat.average(), 0.0);
  EXPECT_EQ(stat.minimum(), 0.0);  // untouched: no +inf sentinel leaks
  stat.record(2.0);
  stat.record(6.0);
  stat.record(4.0);
  EXPECT_EQ(stat.count, 3);
  EXPECT_EQ(stat.minimum(), 2.0);
  EXPECT_EQ(stat.max, 6.0);
  EXPECT_EQ(stat.average(), 4.0);
}

TEST(CostStatisticTest, MergeFoldsAccumulators) {
  CostStatistic a;
  a.record(1.0);
  a.record(3.0);
  CostStatistic b;
  b.record(10.0);
  CostStatistic empty;
  a.merge(b);
  a.merge(empty);  // merging an untouched statistic changes nothing
  EXPECT_EQ(a.count, 3);
  EXPECT_EQ(a.minimum(), 1.0);
  EXPECT_EQ(a.max, 10.0);
  EXPECT_EQ(a.total, 14.0);
}

TEST(CostStatisticTest, ScopedTimerRecordsOneSample) {
  CostStatistic stat;
  {
    ScopedCostTimer timer(stat);
  }
  EXPECT_EQ(stat.count, 1);
  EXPECT_GE(stat.max, 0.0);
}

TEST(StageStatsCollectorTest, FoldsStageObservations) {
  StageStatsCollector collector;
  StageObserver observer = collector.observer();
  observer(PipelineStage::kSimulate, 0.5, "detail");
  observer(PipelineStage::kSimulate, 1.5, "detail");
  observer(PipelineStage::kPlace, 2.0, "detail");
  const CostStatistic simulate = collector.statistic(PipelineStage::kSimulate);
  EXPECT_EQ(simulate.count, 2);
  EXPECT_EQ(simulate.average(), 1.0);
  EXPECT_EQ(simulate.minimum(), 0.5);
  EXPECT_EQ(simulate.max, 1.5);
  EXPECT_EQ(collector.statistic(PipelineStage::kPlace).count, 1);
  EXPECT_EQ(collector.statistic(PipelineStage::kBind).count, 0);
}

}  // namespace
}  // namespace dmfb
