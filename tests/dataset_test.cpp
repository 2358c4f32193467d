#include "src/fault/dataset.hpp"

#include <gtest/gtest.h>

namespace fcrit::fault {
namespace {

CampaignResult make_result(
    const std::vector<std::tuple<NodeId, bool, std::uint64_t>>& rows) {
  CampaignResult r;
  for (const auto& [node, sa1, lanes] : rows) {
    FaultResult fr;
    fr.fault = {node, sa1};
    fr.dangerous_lanes = lanes;
    r.faults.push_back(fr);
  }
  return r;
}

TEST(Dataset, ScoresAreDangerousFractionOfWorkloads) {
  // Node 5: SA0 dangerous in 32 lanes, SA1 in none -> score 0.5.
  const auto r = make_result({{5, false, 0xFFFFFFFFULL}, {5, true, 0}});
  const auto ds = generate_dataset(r, 0.5);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_DOUBLE_EQ(ds.score[0], 0.5);
  EXPECT_EQ(ds.label[0], 1);  // >= threshold
  EXPECT_EQ(ds.num_workloads, 64);
}

TEST(Dataset, PolaritiesMergeByLaneUnion) {
  // SA0 dangerous in lanes 0-15, SA1 in lanes 8-23: union = 24 lanes.
  const std::uint64_t lo = 0xFFFFULL;
  const std::uint64_t mid = 0xFFFF00ULL;
  const auto r = make_result({{3, false, lo}, {3, true, mid}});
  const auto ds = generate_dataset(r, 0.5);
  EXPECT_DOUBLE_EQ(ds.score[0], 24.0 / 64.0);
  EXPECT_EQ(ds.label[0], 0);
}

TEST(Dataset, ThresholdBoundaryIsInclusive) {
  const auto r = make_result({{1, false, 0xFFFFFFFFULL}, {1, true, 0}});
  EXPECT_EQ(generate_dataset(r, 0.5).label[0], 1);   // score == th
  EXPECT_EQ(generate_dataset(r, 0.51).label[0], 0);  // score < th
}

TEST(Dataset, NodesSortedAndIndexable) {
  const auto r = make_result({{9, false, ~0ULL},
                              {9, true, 0},
                              {2, false, 0},
                              {2, true, 0},
                              {5, false, ~0ULL},
                              {5, true, ~0ULL}});
  const auto ds = generate_dataset(r, 0.5);
  ASSERT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.nodes, (std::vector<NodeId>{2, 5, 9}));
  EXPECT_EQ(ds.index_of(5), 1);
  EXPECT_EQ(ds.index_of(9), 2);
  EXPECT_EQ(ds.index_of(7), -1);
}

TEST(Dataset, CountsAndSummary) {
  const auto r = make_result({{1, false, ~0ULL},
                              {1, true, 0},
                              {2, false, 0},
                              {2, true, 0}});
  const auto ds = generate_dataset(r, 0.5);
  EXPECT_EQ(ds.num_critical(), 1u);
  EXPECT_DOUBLE_EQ(ds.critical_fraction(), 0.5);
  const std::string s = ds.summary();
  EXPECT_NE(s.find("2 nodes"), std::string::npos);
  EXPECT_NE(s.find("1 critical"), std::string::npos);
}

TEST(Dataset, EmptyCampaignGivesEmptyDataset) {
  const auto ds = generate_dataset(CampaignResult{}, 0.5);
  EXPECT_EQ(ds.size(), 0u);
  EXPECT_EQ(ds.num_workloads, 64);
}

}  // namespace
}  // namespace fcrit::fault
