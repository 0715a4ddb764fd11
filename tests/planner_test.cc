#include <gtest/gtest.h>

#include "engine/database.h"

namespace elephant {
namespace {

/// Planner behaviour tests: access-path selection, join ordering, algorithm
/// choice, hints, and interesting-order tracking — checked through EXPLAIN
/// output and result correctness.
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    Exec("CREATE TABLE big (k INT, fk INT, payload VARCHAR) CLUSTER BY (k)");
    Exec("CREATE TABLE small (id INT, label VARCHAR) CLUSTER BY (id)");
    for (int i = 0; i < 400; i++) {
      Exec("INSERT INTO big VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 20) + ", 'p" + std::to_string(i) + "')");
    }
    for (int i = 0; i < 20; i++) {
      Exec("INSERT INTO small VALUES (" + std::to_string(i) + ", 's" +
           std::to_string(i) + "')");
    }
    ASSERT_TRUE(db_->Analyze("big").ok());
    ASSERT_TRUE(db_->Analyze("small").ok());
  }

  void Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
  }

  std::string Plan(const std::string& sql) {
    auto p = db_->Explain(sql);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p.ok() ? p.value() : "";
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlannerTest, PointPredicateUsesClusteredSeek) {
  const std::string plan = Plan("SELECT payload FROM big WHERE k = 7");
  EXPECT_NE(plan.find("range on 1 key col(s)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Filter"), std::string::npos) << plan;  // fully consumed
}

TEST_F(PlannerTest, RangePlusResidualKeepsFilter) {
  const std::string plan =
      Plan("SELECT payload FROM big WHERE k > 100 AND fk = 3");
  EXPECT_NE(plan.find("range on 1 key col(s)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
}

TEST_F(PlannerTest, SmallOuterJoinsViaInlj) {
  // A single-row outer should probe the inner's clustered index.
  const std::string plan = Plan(
      "SELECT label FROM big, small WHERE fk = small.id AND k = 5");
  EXPECT_NE(plan.find("IndexNestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, LargeOuterSwitchesToHashJoin) {
  // All 400 big rows probe 20 small rows: the pessimistic cost model must
  // prefer building a hash table over 400 random seeks.
  const std::string plan =
      Plan("SELECT label, COUNT(*) FROM big, small WHERE fk = small.id "
           "GROUP BY label");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, LoopJoinHintForcesInlj) {
  // With big as outer (FORCE_ORDER), small's clustered key matches the join
  // column, and LOOP_JOIN overrides the pessimistic seek costing.
  const std::string plan = Plan(
      "/*+ FORCE_ORDER LOOP_JOIN */ SELECT label, COUNT(*) FROM big, small "
      "WHERE fk = small.id GROUP BY label");
  EXPECT_NE(plan.find("IndexNestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, SmallestFilteredRelationGoesFirst) {
  // small (20 rows) starts the join unless FORCE_ORDER overrides.
  const std::string plan =
      Plan("SELECT COUNT(*) FROM big, small WHERE fk = small.id");
  // The outer is the join's first child, so SMALL's scan is printed before
  // BIG's.
  const size_t small_pos = plan.find("SMALL as SMALL");
  const size_t big_pos = plan.find("BIG as BIG");
  ASSERT_NE(small_pos, std::string::npos) << plan;
  ASSERT_NE(big_pos, std::string::npos) << plan;
  EXPECT_LT(small_pos, big_pos) << plan;
  // The hash table is built on the smaller input: SMALL, not BIG.
  EXPECT_NE(plan.find("HashJoin build=SMALL"), std::string::npos) << plan;
}

TEST_F(PlannerTest, HashJoinBuildSideFollowsEstimatesNotJoinOrder) {
  // Whichever relation FORCE_ORDER puts first, the hash table is built on
  // the smaller estimate: SMALL is the inner when BIG goes first and the
  // outer when it goes first itself. Output columns keep the outer ++ inner
  // order, so both plans return the unforced plan's rows.
  const std::string where = " WHERE fk = small.id ORDER BY k";
  auto free_order = db_->Execute("SELECT k, label FROM big, small" + where);
  ASSERT_TRUE(free_order.ok()) << free_order.status().ToString();
  ASSERT_EQ(free_order.value().rows.size(), 400u);
  const std::string orders[] = {"big, small", "small, big"};
  for (const std::string& from : orders) {
    const std::string sql =
        "/*+ FORCE_ORDER HASH_JOIN */ SELECT k, label FROM " + from + where;
    const std::string plan = Plan(sql);
    const bool big_first = from == "big, small";
    EXPECT_EQ(plan.find("BIG as BIG") < plan.find("SMALL as SMALL"), big_first)
        << plan;
    EXPECT_NE(plan.find("HashJoin build=SMALL"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("build=BIG"), std::string::npos) << plan;
    auto forced = db_->Execute(sql);
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    ASSERT_EQ(forced.value().rows.size(), 400u);
    for (size_t i = 0; i < 400; i++) {
      EXPECT_TRUE(forced.value().rows[i] == free_order.value().rows[i])
          << from << " row " << i;
    }
  }
}

TEST_F(PlannerTest, BandPredicateWithoutHintsUsesMergeNotProduct) {
  // Band join with no equality keys: the pessimistic optimizer must choose
  // a band merge join, never a cross product.
  Exec("CREATE TABLE ranges (lo INT, hi INT) CLUSTER BY (lo)");
  for (int i = 0; i < 50; i++) {
    Exec("INSERT INTO ranges VALUES (" + std::to_string(i * 8) + ", " +
         std::to_string(i * 8 + 7) + ")");
  }
  ASSERT_TRUE(db_->Analyze("ranges").ok());
  const std::string plan = Plan(
      "SELECT COUNT(*) FROM ranges, big WHERE big.k BETWEEN ranges.lo AND "
      "ranges.hi");
  EXPECT_NE(plan.find("BandMergeJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("NestedProduct"), std::string::npos) << plan;
  // And it computes the right answer: every k in 0..399 falls in one range.
  auto r = db_->Execute(
      "SELECT COUNT(*) FROM ranges, big WHERE big.k BETWEEN ranges.lo AND "
      "ranges.hi");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt64(), 400);
}

TEST_F(PlannerTest, MergeJoinSkipsSortWhenOuterOrdered) {
  Exec("CREATE TABLE ranges2 (lo INT, hi INT) CLUSTER BY (lo)");
  for (int i = 0; i < 10; i++) {
    Exec("INSERT INTO ranges2 VALUES (" + std::to_string(i * 40) + ", " +
         std::to_string(i * 40 + 39) + ")");
  }
  const std::string plan = Plan(
      "/*+ FORCE_ORDER MERGE_JOIN */ SELECT COUNT(*) FROM ranges2, big "
      "WHERE big.k BETWEEN ranges2.lo AND ranges2.hi");
  // ranges2 scans in lo order (cluster key): no sort operator needed.
  EXPECT_NE(plan.find("outer pre-sorted"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Sort (merge-join order"), std::string::npos) << plan;
}

TEST_F(PlannerTest, MergeJoinSortsWhenOuterUnordered) {
  Exec("CREATE TABLE uranges (tag INT, lo INT, hi INT) CLUSTER BY (tag)");
  for (int i = 0; i < 10; i++) {
    Exec("INSERT INTO uranges VALUES (" + std::to_string(9 - i) + ", " +
         std::to_string(i * 40) + ", " + std::to_string(i * 40 + 39) + ")");
  }
  const std::string plan = Plan(
      "/*+ FORCE_ORDER MERGE_JOIN */ SELECT COUNT(*) FROM uranges, big "
      "WHERE big.k BETWEEN uranges.lo AND uranges.hi");
  // uranges is clustered on tag, not lo: a sort must be inserted.
  EXPECT_NE(plan.find("Sort (merge-join order"), std::string::npos) << plan;
  auto r = db_->Execute(
      "/*+ FORCE_ORDER MERGE_JOIN */ SELECT COUNT(*) FROM uranges, big "
      "WHERE big.k BETWEEN uranges.lo AND uranges.hi");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt64(), 400);
}

TEST_F(PlannerTest, CoveringIndexBeatsClusteredWhenMoreSelectivePath) {
  Exec("CREATE INDEX ix_fk ON big (fk) INCLUDE (payload)");
  const std::string plan = Plan("SELECT payload FROM big WHERE fk = 3");
  EXPECT_NE(plan.find("CoveringIndexSeek IX_FK"), std::string::npos) << plan;
}

TEST_F(PlannerTest, HashJoinHintOverridesInlj) {
  const std::string plan = Plan(
      "/*+ HASH_JOIN */ SELECT label FROM big, small WHERE fk = small.id "
      "AND k = 5");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("IndexNestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, ThreeWayJoinPlansAndAgreesWithHashOnly) {
  Exec("CREATE TABLE mid (m INT, sid INT) CLUSTER BY (m)");
  for (int i = 0; i < 100; i++) {
    Exec("INSERT INTO mid VALUES (" + std::to_string(i) + ", " +
         std::to_string(i % 20) + ")");
  }
  ASSERT_TRUE(db_->Analyze("mid").ok());
  const std::string q =
      "SELECT COUNT(*) FROM big, mid, small "
      "WHERE big.fk = mid.m AND mid.sid = small.id";
  auto a = db_->Execute(q);
  auto b = db_->Execute("/*+ HASH_JOIN */ " + q);
  auto c = db_->Execute("/*+ FORCE_ORDER LOOP_JOIN */ " + q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(a.value().rows[0][0].AsInt64(), b.value().rows[0][0].AsInt64());
  EXPECT_EQ(a.value().rows[0][0].AsInt64(), c.value().rows[0][0].AsInt64());
  // mid.m is unique, so each big row matches exactly one mid row, which
  // matches exactly one small row.
  EXPECT_EQ(a.value().rows[0][0].AsInt64(), 400);
}

TEST_F(PlannerTest, StreamAggHintProducesSortPlusStreamAggregate) {
  const std::string plan = Plan(
      "/*+ STREAM_AGG */ SELECT fk, COUNT(*) FROM big GROUP BY fk");
  EXPECT_NE(plan.find("StreamAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Sort (group order)"), std::string::npos) << plan;
}

}  // namespace
}  // namespace elephant
