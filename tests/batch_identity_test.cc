#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"

namespace elephant {
namespace {

/// Differential identity harness for the vectorized engine: every query runs
/// three ways — Volcano (NO_BATCH), batch serial, and batch PARALLEL 4 — and
/// the results must be byte-identical. Randomized generators sweep plan
/// shapes (filters, projections, both aggregate kinds, DISTINCT, ORDER BY,
/// LIMIT, two-table hash joins); fixed regression queries pin shapes the
/// sweep once diverged on or that are structurally interesting
/// (batch-boundary groups, LIMIT over Gather, scalar aggregates over empty
/// inputs, hash joins built on either side).
class BatchIdentityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions opts;
    opts.cold_cache = false;
    opts.worker_threads = 4;
    db_ = new Database(opts);
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE t (k INT, grp INT, a INT, b BIGINT, "
                     "amount DECIMAL) CLUSTER BY (k)")
            .ok());
    // 3000 rows so serial batch plans cross the 1024-row batch boundary
    // twice. NULLs are sprinkled into a and amount (every 7th / 11th row)
    // so NULL comparison, SUM-skips-NULL, and COUNT(col) semantics are all
    // exercised. Values are kept small enough that no generated arithmetic
    // can overflow (overflow parity has its own tests in common_test).
    Rng rng(0xe1e9);
    std::string multi;
    for (int i = 0; i < 3000; i++) {
      // INSERT literals cannot be signed expressions, so values are kept
      // non-negative (negative constants still appear in generated WHERE
      // clauses, where unary minus parses as 0 - c).
      const std::string a =
          i % 7 == 0 ? "NULL" : std::to_string(rng.Uniform(0, 100));
      const std::string amount =
          i % 11 == 0
              ? "NULL"
              : std::to_string(rng.Uniform(0, 9999)) + "." +
                    std::to_string(rng.Uniform(10, 99));
      multi += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
               std::to_string(i % 13) + ", " + a + ", " +
               std::to_string(rng.Uniform(0, 2000000)) + ", " + amount + ")";
    }
    ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES " + multi).ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX t_grp ON t (grp) INCLUDE (a)").ok());
    // Join inputs. jl (300 rows) and jr (1200 rows) share a key column jk
    // with duplicates on both sides and NULLs sprinkled into each; their
    // strings are too long for the small-string buffer, so a value moved
    // out of a row that is still needed shows up as an empty string; jfan is
    // 1500 rows of one key (a build side past the batch size whose key
    // matches more rows than one output batch holds); jbig is a large probe
    // side; jdim a small dimension; jempty has no rows.
    const std::vector<std::string> ddl = {
        "CREATE TABLE jl (id INT, jk INT, v INT, tag VARCHAR) CLUSTER BY (id)",
        "CREATE TABLE jr (id INT, jk INT, w INT, note VARCHAR) CLUSTER BY (id)",
        "CREATE TABLE jfan (id INT, jk INT) CLUSTER BY (id)",
        "CREATE TABLE jbig (id INT, jk INT, tag VARCHAR) CLUSTER BY (id)",
        "CREATE TABLE jdim (jk INT, name VARCHAR) CLUSTER BY (jk)",
        "CREATE TABLE jempty (id INT, jk INT) CLUSTER BY (id)"};
    for (const std::string& sql : ddl) ASSERT_TRUE(db_->Execute(sql).ok()) << sql;
    auto fill = [](const std::string& table, int n, auto row) {
      std::string values;
      for (int i = 0; i < n; i++) values += (i == 0 ? "(" : ", (") + row(i) + ")";
      ASSERT_TRUE(db_->Execute("INSERT INTO " + table + " VALUES " + values).ok())
          << table;
    };
    auto num = [](int i) { return std::to_string(i); };
    fill("jl", kJl, [&](int i) {
      return num(i) + ", " + (JlKey(i) < 0 ? "NULL" : num(JlKey(i))) + ", " +
             num(i) + ", 'left row number " + num(i) + "'";
    });
    fill("jr", kJr, [&](int i) {
      return num(i) + ", " + (JrKey(i) < 0 ? "NULL" : num(JrKey(i))) + ", " +
             num(i * 3) + ", 'right row number " + num(i) + "'";
    });
    fill("jfan", 1500, [&](int i) { return num(i) + ", 5"; });
    fill("jbig", 4000, [&](int i) {
      return num(i) + ", " + num(i % 50) + ", 'probe row number " + num(i) + "'";
    });
    fill("jdim", 23, [&](int i) { return num(i) + ", 'd" + num(i) + "'"; });
  }
  static constexpr int kJl = 300;
  static constexpr int kJr = 1200;
  /// Join keys of jl / jr row i; -1 stands for NULL.
  static int JlKey(int i) { return i % 10 == 0 ? -1 : i % 17; }
  static int JrKey(int i) { return i % 9 == 0 ? -1 : i % 23; }

  /// The EXPLAIN text of `sql` under the default (batch) engine.
  static std::string Plan(const std::string& sql) {
    auto p = db_->Explain(sql);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p.ok() ? p.value() : "";
  }

  /// ExpectIdentical for a join query whose plan must contain `label`
  /// (e.g. which side the hash join builds on).
  static void ExpectJoinIdentical(const std::string& sql,
                                  const std::string& label) {
    const std::string plan = Plan(sql);
    EXPECT_NE(plan.find(label), std::string::npos) << sql << "\n" << plan;
    ExpectIdentical(sql);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  /// Runs `sql` through both engines at both degrees of parallelism and
  /// asserts the engines agree:
  ///  - Volcano serial vs batch serial: byte-identical (same plan shape,
  ///    only the engine differs).
  ///  - Volcano PARALLEL 4 vs batch PARALLEL 4: byte-identical likewise.
  ///  - serial vs parallel: identical as multisets (a parallel plan may
  ///    legitimately pick a different access path — e.g. clustered morsels
  ///    where serial uses a covering index — changing unordered row order).
  /// Statements where every engine fails with the same status code also
  /// pass (both engines rejecting an overflow identically is agreement);
  /// one engine failing while the other succeeds is a divergence.
  static void ExpectIdentical(const std::string& sql) {
    PlanHints volcano;
    volcano.no_batch = true;
    PlanHints parallel;
    parallel.parallel_workers = 4;
    PlanHints volcano_parallel = volcano;
    volcano_parallel.parallel_workers = 4;
    auto row_r = db_->Execute(sql, volcano);
    auto batch_r = db_->Execute(sql);
    auto rowpar_r = db_->Execute(sql, volcano_parallel);
    auto par_r = db_->Execute(sql, parallel);
    ASSERT_EQ(row_r.ok(), batch_r.ok())
        << sql << "\nrow: " << row_r.status().ToString()
        << "\nbatch: " << batch_r.status().ToString();
    ASSERT_EQ(rowpar_r.ok(), par_r.ok())
        << sql << "\nrow parallel: " << rowpar_r.status().ToString()
        << "\nbatch parallel: " << par_r.status().ToString();
    if (!row_r.ok()) {
      EXPECT_EQ(row_r.status().code(), batch_r.status().code()) << sql;
      if (!rowpar_r.ok()) {
        EXPECT_EQ(rowpar_r.status().code(), par_r.status().code()) << sql;
      }
      return;
    }
    ExpectRowsIdentical(row_r.value(), batch_r.value(), sql + " [serial]");
    if (rowpar_r.ok()) {
      ExpectRowsIdentical(rowpar_r.value(), par_r.value(), sql + " [parallel]");
      ExpectSameMultiset(row_r.value(), par_r.value(),
                         sql + " [serial vs parallel]");
    }
    // Counters-match-emitted-rows enforcement (the rows_output audit):
    // rows_output is "rows the root emitted", for every engine and degree
    // of parallelism — including LIMIT-atop-Gather shapes.
    EXPECT_EQ(row_r.value().counters.rows_output, row_r.value().rows.size())
        << sql;
    EXPECT_EQ(batch_r.value().counters.rows_output,
              batch_r.value().rows.size())
        << sql;
    if (par_r.ok()) {
      EXPECT_EQ(par_r.value().counters.rows_output, par_r.value().rows.size())
          << sql;
    }
  }

  /// Order-insensitive comparison for plans that legitimately emit in
  /// different (unspecified) orders.
  static void ExpectSameMultiset(const QueryResult& want,
                                 const QueryResult& got,
                                 const std::string& what) {
    auto render = [](const QueryResult& r) {
      std::vector<std::string> out;
      out.reserve(r.rows.size());
      for (const Row& row : r.rows) {
        std::string s;
        for (const Value& v : row) s += v.ToString() + "|";
        out.push_back(std::move(s));
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(render(want), render(got)) << what;
  }

  static void ExpectRowsIdentical(const QueryResult& want,
                                  const QueryResult& got,
                                  const std::string& what) {
    ASSERT_EQ(want.rows.size(), got.rows.size()) << what;
    for (size_t i = 0; i < want.rows.size(); i++) {
      ASSERT_EQ(want.rows[i].size(), got.rows[i].size()) << what;
      for (size_t j = 0; j < want.rows[i].size(); j++) {
        ASSERT_TRUE(want.rows[i][j] == got.rows[i][j])
            << what << " row " << i << " col " << j << ": "
            << want.rows[i][j].ToString() << " vs "
            << got.rows[i][j].ToString();
      }
    }
  }

  static Database* db_;
};

Database* BatchIdentityTest::db_ = nullptr;

// ---------- fixed regression shapes ----------

TEST_F(BatchIdentityTest, ScanProjectFilter) {
  ExpectIdentical("SELECT k, a, amount FROM t WHERE k >= 100 AND k < 2200");
  ExpectIdentical("SELECT k + 1, amount FROM t WHERE grp = 5 AND a > 10");
  ExpectIdentical("SELECT k FROM t WHERE a IS NULL");
  ExpectIdentical("SELECT k FROM t WHERE 1 = 0");
}

TEST_F(BatchIdentityTest, CoveringIndexScan) {
  ExpectIdentical("SELECT grp, a FROM t WHERE grp = 7");
  ExpectIdentical("SELECT grp, a FROM t WHERE grp >= 10");
}

TEST_F(BatchIdentityTest, Aggregates) {
  ExpectIdentical("SELECT COUNT(*), SUM(a), MIN(b), MAX(b), AVG(amount) FROM t");
  ExpectIdentical(
      "SELECT grp, COUNT(*), SUM(b), AVG(a) FROM t GROUP BY grp");
  ExpectIdentical(
      "SELECT grp, COUNT(a) FROM t GROUP BY grp HAVING COUNT(a) > 100");
  // Scalar aggregate over an empty input: exactly one row either way.
  ExpectIdentical("SELECT COUNT(*), SUM(a) FROM t WHERE k < 0");
  ExpectIdentical("SELECT grp, SUM(a) FROM t WHERE k < 0 GROUP BY grp");
}

TEST_F(BatchIdentityTest, StreamAggregateBatchBoundaryGroups) {
  // STREAM_AGG sorts then aggregates; grouping by grp makes each group's
  // rows span many 1024-row batches after the sort.
  ExpectIdentical(
      "SELECT /*+ STREAM_AGG */ grp, COUNT(*), SUM(b) FROM t GROUP BY grp");
}

TEST_F(BatchIdentityTest, DistinctOrderByLimit) {
  ExpectIdentical("SELECT DISTINCT grp FROM t ORDER BY grp");
  ExpectIdentical("SELECT k, a FROM t ORDER BY k DESC LIMIT 17");
  ExpectIdentical("SELECT DISTINCT grp FROM t ORDER BY grp LIMIT 4");
  // LIMIT smaller than one batch: the batch scan may overscan, but the
  // emitted rows must match exactly.
  ExpectIdentical("SELECT k FROM t LIMIT 3");
}

TEST_F(BatchIdentityTest, LimitAtopGather) {
  // Regression shape for the rows_output audit: LIMIT above the parallel
  // Gather exchange discards most of what the workers produced.
  PlanHints parallel;
  parallel.parallel_workers = 4;
  auto r = db_->Execute("SELECT k FROM t LIMIT 5", parallel);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows.size(), 5u);
  EXPECT_EQ(r.value().counters.rows_output, 5u);
  ExpectIdentical("SELECT k, b FROM t ORDER BY k LIMIT 5");
}

TEST_F(BatchIdentityTest, ErrorParity) {
  // Division by zero must fail under every engine with the same code (the
  // row engine hits it on the first offending row; the batch engine must
  // not mask it or hit it in a different order after a filter).
  ExpectIdentical("SELECT k / 0 FROM t");
  ExpectIdentical("SELECT 10 / a FROM t WHERE a = 0");
  // Short-circuit protection: the division is guarded by the conjunct
  // before it, so NO engine may evaluate it at a = 0.
  ExpectIdentical("SELECT k FROM t WHERE a <> 0 AND 100 / a > 1");
}

// ---------- hash joins ----------

TEST_F(BatchIdentityTest, HashJoinBuildInner) {
  // jr (1200) is the outer, jl (300) the smaller inner: build on the inner.
  ExpectJoinIdentical(
      "/*+ FORCE_ORDER */ SELECT jr.id, jr.jk, jr.note, jl.id, jl.tag FROM jr, jl "
      "WHERE jr.jk = jl.jk",
      "HashJoin build=JL [batch]");
}

TEST_F(BatchIdentityTest, HashJoinBuildOuter) {
  // jl is the outer and the smaller input: build on the outer, probe with
  // jr. Columns stay outer ++ inner.
  ExpectJoinIdentical(
      "/*+ FORCE_ORDER */ SELECT * FROM jl, jr WHERE jl.jk = jr.jk",
      "HashJoin build=JL [batch]");
  ExpectJoinIdentical(
      "/*+ FORCE_ORDER */ SELECT jr.w, jl.v FROM jl, jr "
      "WHERE jl.jk = jr.jk AND jr.w > 600",
      "HashJoin build=JL [batch]");
}

TEST_F(BatchIdentityTest, HashJoinNullAndDuplicateKeys) {
  // Duplicate keys on both sides make an N:M join; NULL keys on either side
  // never match.
  int64_t expected = 0;
  for (int i = 0; i < kJl; i++) {
    for (int j = 0; j < kJr; j++) {
      if (JlKey(i) >= 0 && JlKey(i) == JrKey(j)) expected++;
    }
  }
  for (const char* order : {"jl, jr", "jr, jl"}) {
    const std::string sql = std::string("/*+ FORCE_ORDER */ SELECT COUNT(*) FROM ") +
                            order + " WHERE jl.jk = jr.jk";
    auto r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().rows[0][0].AsInt64(), expected) << sql;
    ExpectIdentical(sql);
    ExpectIdentical(std::string("/*+ FORCE_ORDER */ SELECT jl.tag, jr.note FROM ") +
                    order + " WHERE jl.jk = jr.jk");
  }
}

TEST_F(BatchIdentityTest, HashJoinEmptyBuildAndProbe) {
  // Empty build side: jl's filter is estimated at half of jl, below jr,
  // but keeps no row.
  ExpectJoinIdentical(
      "SELECT jl.id, jr.id FROM jl, jr WHERE jl.jk = jr.jk AND jl.id + 0 < 0",
      "HashJoin build=JL [batch]");
  // Empty probe side: jr's filter keeps nothing; jl is still built.
  ExpectJoinIdentical(
      "/*+ FORCE_ORDER */ SELECT jl.id, jr.id FROM jr, jl "
      "WHERE jl.jk = jr.jk AND jr.id + 0 < 0",
      "HashJoin build=JL [batch]");
  // A table with no rows at all, on either side, and a scalar aggregate.
  ExpectIdentical("SELECT jl.id FROM jl, jempty WHERE jl.jk = jempty.jk");
  ExpectIdentical(
      "/*+ FORCE_ORDER */ SELECT COUNT(*) FROM jempty, jl "
      "WHERE jl.jk = jempty.jk");
}

TEST_F(BatchIdentityTest, HashJoinResidualOverBothSides) {
  ExpectJoinIdentical(
      "/*+ FORCE_ORDER */ SELECT jl.id, jr.id, jr.w - jl.v FROM jl, jr "
      "WHERE jl.jk = jr.jk AND jl.v * 4 > jr.w",
      "HashJoin build=JL [batch]");
  ExpectJoinIdentical(
      "/*+ FORCE_ORDER */ SELECT jl.id, jr.id FROM jr, jl "
      "WHERE jl.jk = jr.jk AND (jl.v < 20 OR jr.w + jl.v > 3500)",
      "HashJoin build=JL [batch]");
}

TEST_F(BatchIdentityTest, HashJoinProbeRowOverflowsOneBatch) {
  // jbig (4000 rows, filter estimated at half) probes jfan (1500 rows, all
  // key 5), so jfan is the build side past one batch, and each probe row
  // with key 5 matches 1500 build rows: its output splits across batches.
  const std::string sql =
      "SELECT jbig.tag, jfan.id FROM jbig, jfan "
      "WHERE jbig.jk = jfan.jk AND jbig.id + 0 < 60";
  ExpectJoinIdentical(sql, "HashJoin build=JFAN [batch]");
  auto r = db_->Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows.size(), 2u * 1500u);  // jbig ids 5 and 55
  // The same with a residual that drops whole output batches.
  ExpectIdentical(
      "SELECT jbig.id, jfan.id FROM jbig, jfan "
      "WHERE jbig.jk = jfan.jk AND jbig.id + 0 < 60 AND jfan.id >= 1400");
  // Build on the outer: jfan first and smaller than jbig.
  ExpectJoinIdentical(
      "/*+ FORCE_ORDER */ SELECT COUNT(*), SUM(jbig.id), MAX(jfan.id) "
      "FROM jfan, jbig WHERE jfan.jk = jbig.jk",
      "HashJoin build=JFAN [batch]");
}

TEST_F(BatchIdentityTest, HashJoinThreeWayQ7Shape) {
  // Figure-2 Q7 shape: dimension ⋈ fact ⋈ filtered fact, then a grouped
  // aggregate above the joins.
  ExpectIdentical(
      "SELECT jdim.name, COUNT(*), SUM(jl.v), SUM(jr.w) FROM jdim, jr, jl "
      "WHERE jdim.jk = jr.jk AND jr.jk = jl.jk AND jl.v > 20 "
      "GROUP BY jdim.name");
  ExpectIdentical(
      "/*+ FORCE_ORDER HASH_JOIN */ SELECT jdim.name, jr.id, jl.id "
      "FROM jdim, jr, jl WHERE jdim.jk = jr.jk AND jr.jk = jl.jk "
      "AND jl.v > 250");
}

TEST_F(BatchIdentityTest, KeylessCrossProduct) {
  ExpectJoinIdentical(
      "SELECT jl.id, jdim.name FROM jl, jdim WHERE jl.id < 7",
      "NestedProduct (no join keys) [batch]");
  ExpectJoinIdentical(
      "SELECT jl.id, jdim.jk FROM jl, jdim WHERE jl.id < 50 AND jl.v > jdim.jk",
      "NestedProduct (no join keys) [batch]");
}

TEST_F(BatchIdentityTest, HashJoinErrorParity) {
  // jr row 1 has w = 3 and key 1, which matches jl rows: the residual
  // divides by zero in every engine, whichever side is built.
  ExpectIdentical(
      "/*+ FORCE_ORDER */ SELECT jl.id FROM jl, jr "
      "WHERE jl.jk = jr.jk AND jl.v / (jr.w - 3) > 1");
  ExpectIdentical(
      "/*+ FORCE_ORDER */ SELECT jl.id FROM jr, jl "
      "WHERE jl.jk = jr.jk AND jl.v / (jr.w - 3) > 1");
  auto r = db_->Execute(
      "/*+ FORCE_ORDER */ SELECT jl.id FROM jl, jr "
      "WHERE jl.jk = jr.jk AND jl.v / (jr.w - 3) > 1");
  EXPECT_FALSE(r.ok());
}

// ---------- randomized differential sweep ----------

TEST_F(BatchIdentityTest, RandomizedDifferentialSweep) {
  Rng rng(20260807);
  const char* scalar_cols[] = {"k", "grp", "a", "b", "amount"};
  const char* int_cols[] = {"k", "grp", "a"};
  const char* cmps[] = {"=", "<>", "<", "<=", ">", ">="};
  auto col = [&] { return scalar_cols[rng.Uniform(0, 4)]; };
  auto icol = [&] { return int_cols[rng.Uniform(0, 2)]; };
  auto cmp = [&] { return cmps[rng.Uniform(0, 5)]; };
  // Division only by non-zero literals: the engines may evaluate different
  // row sets past LIMIT/filter boundaries, so a data-dependent error could
  // legitimately fire in one engine and not the other. Overflow-prone
  // arithmetic is excluded the same way (parity for guarded/unguarded
  // errors is pinned by the fixed shapes above).
  auto predicate = [&]() -> std::string {
    std::string p = std::string(col()) + " " + cmp() + " " +
                    std::to_string(rng.Uniform(-40, 2500));
    if (rng.Uniform(0, 2) == 0) {
      p += (rng.Uniform(0, 1) == 0 ? " AND " : " OR ") + std::string(col()) +
           " " + cmp() + " " + std::to_string(rng.Uniform(-40, 2500));
    }
    return p;
  };
  int checked = 0;
  for (int q = 0; q < 60; q++) {
    std::string sql;
    const int shape = static_cast<int>(rng.Uniform(0, 3));
    if (shape == 0) {
      sql = "SELECT " + std::string(col()) + ", " + std::string(icol()) +
            " + " + std::to_string(rng.Uniform(0, 100)) + " FROM t WHERE " +
            predicate();
    } else if (shape == 1) {
      sql = "SELECT grp, COUNT(*), SUM(" + std::string(icol()) + "), AVG(" +
            std::string(icol()) + ") FROM t WHERE " + predicate() +
            " GROUP BY grp";
      if (rng.Uniform(0, 1) == 0) sql += " HAVING COUNT(*) > 10";
    } else {
      sql = "SELECT MIN(" + std::string(col()) + "), MAX(" +
            std::string(col()) + "), COUNT(" + std::string(col()) +
            ") FROM t WHERE " + predicate();
    }
    if (rng.Uniform(0, 2) == 0) sql += " ORDER BY 1";
    if (rng.Uniform(0, 2) == 0) {
      sql += " LIMIT " + std::to_string(rng.Uniform(0, 40));
    }
    // Row order is deterministic in every engine (clustered scan order,
    // morsel-order Gather merge, encoded-key aggregate order), so even
    // unordered results compare exactly.
    SCOPED_TRACE(sql);
    ExpectIdentical(sql);
    checked++;
  }
  EXPECT_EQ(checked, 60);
}

TEST_F(BatchIdentityTest, RandomizedTwoTableSweep) {
  // Two-table joins of jl and jr in either order, with local filters that
  // move the build side, optional residuals over both sides, and raw or
  // aggregated output.
  Rng rng(20261020);
  const char* cmps[] = {"=", "<>", "<", "<=", ">", ">="};
  auto cmp = [&] { return cmps[rng.Uniform(0, 5)]; };
  int checked = 0;
  for (int q = 0; q < 40; q++) {
    const bool jl_first = rng.Uniform(0, 1) == 0;
    std::string where = "jl.jk = jr.jk";
    if (rng.Uniform(0, 1) == 0) {
      where += " AND jl.v " + std::string(cmp()) + " " +
               std::to_string(rng.Uniform(0, 300));
    }
    if (rng.Uniform(0, 1) == 0) {
      where += " AND jr.w " + std::string(cmp()) + " " +
               std::to_string(rng.Uniform(0, 3600));
    }
    if (rng.Uniform(0, 2) == 0) {
      where += " AND jl.v + jr.w " + std::string(cmp()) + " " +
               std::to_string(rng.Uniform(0, 3600));
    }
    std::string sql = jl_first || rng.Uniform(0, 1) == 0
                          ? "/*+ FORCE_ORDER */ "
                          : "";
    const int shape = static_cast<int>(rng.Uniform(0, 2));
    if (shape == 0) {
      sql += "SELECT jl.id, jr.id, jl.v + jr.w";
    } else if (shape == 1) {
      sql += "SELECT jl.jk, COUNT(*), SUM(jr.w), MIN(jl.v)";
    } else {
      sql += "SELECT COUNT(*), MAX(jr.id), AVG(jl.v)";
    }
    sql += std::string(" FROM ") + (jl_first ? "jl, jr" : "jr, jl") +
           " WHERE " + where;
    if (shape == 1) sql += " GROUP BY jl.jk";
    if (rng.Uniform(0, 2) == 0) sql += " ORDER BY 1";
    if (rng.Uniform(0, 3) == 0) {
      sql += " LIMIT " + std::to_string(rng.Uniform(0, 40));
    }
    SCOPED_TRACE(sql);
    ExpectIdentical(sql);
    checked++;
  }
  EXPECT_EQ(checked, 40);
}

}  // namespace
}  // namespace elephant
