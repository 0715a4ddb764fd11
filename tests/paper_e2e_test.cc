#include <gtest/gtest.h>

#include <ostream>

#include "benchlib/harness.h"

namespace elephant {
namespace {

using paper::PaperBench;
using paper::StrategyResult;

/// The headline integration test: on a small TPC-H instance, every strategy
/// (Row, Row(MV), Row(Col) with and without the Figure 4(b) optimization,
/// and the merge-join hint ablation) must produce identical results for all
/// seven paper queries across parameter values.
class PaperE2eTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PaperBench::Options options;
    options.scale_factor = 0.003;  // ~4.5k orders, ~18k lineitems
    bench_ = new PaperBench(options);
    Status s = bench_->Setup();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  static void TearDownTestSuite() {
    delete bench_;
    bench_ = nullptr;
  }

  static PaperBench* bench_;
};

PaperBench* PaperE2eTest::bench_ = nullptr;

struct QueryCase {
  std::string name;
  double selectivity;  // for the date parameter
};

// gtest's default GetParam() text dumps the struct's bytes, which include the
// string's data pointer, so the test names ctest discovers would change with
// every build. Print the fields instead.
void PrintTo(const QueryCase& c, std::ostream* os) {
  *os << c.name << " selectivity " << c.selectivity;
}

class AllStrategiesAgree : public PaperE2eTest,
                           public ::testing::WithParamInterface<QueryCase> {};

TEST_P(AllStrategiesAgree, SameResults) {
  const QueryCase& tc = GetParam();
  Value d;
  if (tc.name == "Q1" || tc.name == "Q2" || tc.name == "Q3") {
    auto q = tc.name == "Q2" ? bench_->MedianShipdate()
                             : bench_->ShipdateForSelectivity(tc.selectivity);
    ASSERT_TRUE(q.ok());
    d = q.value();
  } else if (tc.name != "Q7") {
    auto q = tc.name == "Q5" ? bench_->MedianOrderdate()
                             : bench_->OrderdateForSelectivity(tc.selectivity);
    ASSERT_TRUE(q.ok());
    d = q.value();
  }
  AnalyticQuery query = paper::QueryByName(tc.name, d);

  auto row = bench_->RunRow(query);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_GT(row.value().rows, 0u) << "empty result weakens the test";

  auto mv = bench_->RunMv(query);
  ASSERT_TRUE(mv.ok()) << mv.status().ToString();
  EXPECT_EQ(mv.value().checksum, row.value().checksum) << "Row(MV) differs";
  EXPECT_EQ(mv.value().rows, row.value().rows);

  cstore::RewriteOptions naive;
  naive.range_collapse = false;
  auto col_naive = bench_->RunCol(query, naive);
  ASSERT_TRUE(col_naive.ok()) << col_naive.status().ToString();
  EXPECT_EQ(col_naive.value().checksum, row.value().checksum)
      << "Row(Col) naive differs: " << col_naive.value().sql;

  auto col_opt = bench_->RunCol(query);
  ASSERT_TRUE(col_opt.ok()) << col_opt.status().ToString();
  EXPECT_EQ(col_opt.value().checksum, row.value().checksum)
      << "Row(Col) optimized differs: " << col_opt.value().sql;

  cstore::RewriteOptions merge;
  merge.force_merge_join = true;
  auto col_merge = bench_->RunCol(query, merge);
  ASSERT_TRUE(col_merge.ok()) << col_merge.status().ToString();
  EXPECT_EQ(col_merge.value().checksum, row.value().checksum)
      << "Row(Col) merge-join differs: " << col_merge.value().sql;

  // ColOpt produces a nonzero lower bound.
  auto colopt = bench_->RunColOpt(query);
  ASSERT_TRUE(colopt.ok()) << colopt.status().ToString();
  EXPECT_GT(colopt.value().seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Workload, AllStrategiesAgree,
    ::testing::Values(QueryCase{"Q1", 0.1}, QueryCase{"Q1", 0.5},
                      QueryCase{"Q2", 0.0}, QueryCase{"Q3", 0.1},
                      QueryCase{"Q3", 0.9}, QueryCase{"Q4", 0.1},
                      QueryCase{"Q4", 0.5}, QueryCase{"Q5", 0.0},
                      QueryCase{"Q6", 0.1}, QueryCase{"Q6", 0.5},
                      QueryCase{"Q7", 0.0}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.name + "_sel" +
             std::to_string(static_cast<int>(info.param.selectivity * 100));
    });

TEST_F(PaperE2eTest, TpchRowCountsScale) {
  auto r = bench_->db().Execute("SELECT COUNT(*) FROM lineitem");
  ASSERT_TRUE(r.ok());
  const int64_t lines = r.value().rows[0][0].AsInt64();
  EXPECT_GT(lines, 10000);
  EXPECT_LT(lines, 30000);
  auto o = bench_->db().Execute("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o.value().rows[0][0].AsInt64(), 4500);
}

TEST_F(PaperE2eTest, ProjectionRowsMatchSources) {
  EXPECT_EQ(bench_->projection("d1").rows,
            static_cast<uint64_t>(
                bench_->db().Execute("SELECT COUNT(*) FROM lineitem")
                    .value().rows[0][0].AsInt64()));
  // D2 joins lineitem x orders on the key: same row count as lineitem.
  EXPECT_EQ(bench_->projection("d2").rows, bench_->projection("d1").rows);
  EXPECT_EQ(bench_->projection("d4").rows, bench_->projection("d1").rows);
}

TEST_F(PaperE2eTest, LeadingCTableCompressesWell) {
  // d1's leading column (l_shipdate, ~2.5k distinct) must RLE to far fewer
  // runs than rows; deep columns degenerate to the (id, v) form.
  const ProjectionMeta& d1 = bench_->projection("d1");
  const CTableMeta* shipdate = d1.Find("L_SHIPDATE");
  ASSERT_NE(shipdate, nullptr);
  EXPECT_TRUE(shipdate->has_count);
  EXPECT_LT(shipdate->runs * 4, d1.rows);
  const CTableMeta* comment_like = d1.Find("L_SHIPMODE");  // deep in the sort
  ASSERT_NE(comment_like, nullptr);
  EXPECT_FALSE(comment_like->has_count);
}

TEST_F(PaperE2eTest, ColOptScalesWithSelectivity) {
  auto d10 = bench_->ShipdateForSelectivity(0.1);
  auto d90 = bench_->ShipdateForSelectivity(0.9);
  ASSERT_TRUE(d10.ok());
  ASSERT_TRUE(d90.ok());
  auto lo = bench_->RunColOpt(paper::Q3(d10.value()));
  auto hi = bench_->RunColOpt(paper::Q3(d90.value()));
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  EXPECT_LT(lo.value().seconds, hi.value().seconds);
}

TEST_F(PaperE2eTest, MvIsFasterThanRowForQ1) {
  auto d = bench_->ShipdateForSelectivity(0.5);
  ASSERT_TRUE(d.ok());
  AnalyticQuery q = paper::Q1(d.value());
  auto row = bench_->RunRow(q);
  auto mv = bench_->RunMv(q);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(mv.ok());
  // Row scans all of lineitem; Row(MV) reads a tiny pre-aggregated table.
  EXPECT_LT(mv.value().pages_sequential + mv.value().pages_random,
            (row.value().pages_sequential + row.value().pages_random) / 4);
}

TEST_F(PaperE2eTest, RangeCollapseReducesContextSwitches) {
  // Figure 4(a) vs 4(b): the optimized rewrite has a single outer tuple, so
  // far fewer inner-side index seeks.
  auto d = bench_->ShipdateForSelectivity(0.5);
  ASSERT_TRUE(d.ok());
  AnalyticQuery q = paper::Q3(d.value());
  cstore::RewriteOptions naive;
  naive.range_collapse = false;
  auto a = bench_->RunCol(q, naive);
  auto b = bench_->RunCol(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a.value().index_seeks, 100u);
  EXPECT_LE(b.value().index_seeks, a.value().index_seeks / 10);
}

}  // namespace
}  // namespace elephant
