// The three workloads of the repository benchmark. Each is a closed loop
// driven from outside the engine (Database::Execute / ExplainAnalyze,
// Session::Execute and the public stats accessors); NOTES.md says why each
// was chosen and which layer metric should move which end-to-end metric.
//
// Every run sets up several times (setup_s is the median), then runs an
// untraced timed phase of `seconds`. A traced run (--trace 1) follows it
// with a second, traced phase of the same length on the same engine: the
// per-layer metrics come from the traced phase, the workload-only
// end-to-end figures and the tracing overhead from the pair.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "benchlib/harness.h"
#include "benchlib/workload.h"
#include "common/rng.h"
#include "cstore/colopt.h"
#include "cstore/ctable_builder.h"
#include "cstore/rewriter.h"
#include "engine/session.h"
#include "mv/view.h"
#include "perf.h"
#include "tpch/tpch.h"

namespace perfbench {
namespace {

using elephant::DatabaseOptions;
using elephant::Result;
using elephant::Rng;
using elephant::Session;
using elephant::Status;
using elephant::Value;
using elephant::paper::ResultChecksum;


template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; i--) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(
                               rng->Uniform(0, static_cast<int64_t>(i) - 1))]);
  }
}

std::string Describe(const Status& s) { return s.ToString(); }

/// TPC-H in a fresh engine, optionally with the paper's c-tables (D1, D2,
/// D4) and generalized materialized views: the calls PaperBench::Setup
/// makes, with the TPC-H seed taken from the run's seed (PaperBench pins
/// TpchConfig's default seed).
struct Rig {
  std::unique_ptr<Database> db;
  std::unique_ptr<elephant::mv::ViewManager> views;
  std::map<std::string, elephant::ProjectionMeta> projections;
};

Status SetUpTpch(double scale_factor, uint64_t seed, bool paper_structures,
                 DatabaseOptions db_options, Tracer* tracer, Rig* rig) {
  rig->db = std::make_unique<Database>(db_options);
  {
    SpanScope span(tracer, "tpch.load", 0);
    elephant::TpchConfig config;
    config.scale_factor = scale_factor;
    config.seed = seed;
    ELE_RETURN_NOT_OK(elephant::TpchGenerator(config).LoadInto(rig->db.get()));
  }
  if (!paper_structures) return Status::OK();
  elephant::cstore::CTableBuilder builder(rig->db.get());
  for (const elephant::ProjectionDef& def : elephant::paper::Projections()) {
    SpanScope span(tracer, "cstore.ctable_build", 0);
    ELE_ASSIGN_OR_RETURN(elephant::ProjectionMeta meta, builder.Build(def));
    rig->projections.emplace(def.name, std::move(meta));
  }
  rig->views = std::make_unique<elephant::mv::ViewManager>(rig->db.get());
  for (const elephant::mv::ViewDef& def : elephant::paper::Views()) {
    SpanScope span(tracer, "mv.view_build", 0);
    ELE_RETURN_NOT_OK(rig->views->CreateView(def));
  }
  return Status::OK();
}

/// Tears down and sets up again `count` times, keeps the last set-up, and
/// returns the median set-up duration (teardown excluded). Workloads with a
/// short set-up repeat it more often, so its median is as steady as a long
/// one's; the count is fixed per workload so peak RSS stays comparable.
template <typename ResetFn, typename SetupFn>
Result<double> SetUpRepeatedly(int count, ResetFn reset, SetupFn setup) {
  std::vector<double> seconds;
  for (int i = 0; i < count; i++) {
    reset();
    const double t0 = Now();
    ELE_RETURN_NOT_OK(setup());
    seconds.push_back(Now() - t0);
  }
  return Median(seconds);
}

/// The date D such that `column > D` selects about `fraction` of `table`:
/// the rule of PaperBench::ShipdateForSelectivity / OrderdateForSelectivity,
/// over one GROUP BY read once per run.
class DateQuantiles {
 public:
  Status Load(Database* db, const std::string& table, const std::string& column) {
    ELE_ASSIGN_OR_RETURN(
        QueryResult r, db->Execute("SELECT " + column + ", COUNT(*) FROM " +
                                   table + " GROUP BY " + column +
                                   " ORDER BY " + column));
    if (r.rows.empty()) return Status::NotFound("empty table " + table);
    for (const elephant::Row& row : r.rows) {
      buckets_.emplace_back(row[0], static_cast<uint64_t>(row[1].AsInt64()));
      total_ += buckets_.back().second;
    }
    return Status::OK();
  }

  Value ForFraction(double fraction) const {
    const uint64_t want_above =
        static_cast<uint64_t>(fraction * static_cast<double>(total_));
    uint64_t above = 0;
    for (size_t i = buckets_.size(); i > 0; i--) {
      above += buckets_[i - 1].second;
      if (above >= want_above) return buckets_[i - 1].first;
    }
    return buckets_.front().first;
  }

 private:
  std::vector<std::pair<Value, uint64_t>> buckets_;
  uint64_t total_ = 0;
};

/// The paper's 19 Figure-2 points; selectivity < 0 marks an equality
/// predicate (Q2, Q5) or Q7's flag.
struct Point {
  const char* query;
  double selectivity;
};
const std::vector<Point>& Figure2Points() {
  static const std::vector<Point> points = {
      {"Q1", 0.01}, {"Q1", 0.1}, {"Q1", 0.5}, {"Q1", 1.0}, {"Q2", -1},
      {"Q3", 0.01}, {"Q3", 0.1}, {"Q3", 0.5}, {"Q3", 1.0}, {"Q4", 0.01},
      {"Q4", 0.1},  {"Q4", 0.5}, {"Q4", 1.0}, {"Q5", -1},  {"Q6", 0.01},
      {"Q6", 0.1},  {"Q6", 0.5}, {"Q6", 1.0}, {"Q7", -1},
  };
  return points;
}

/// "Q3@10%", or "Q2@eq" for the equality/flag points.
std::string PointLabel(const Point& p) {
  return std::string(p.query) + "@" +
         (p.selectivity < 0
              ? std::string("eq")
              : std::to_string(static_cast<int>(p.selectivity * 100)) + "%");
}

/// Runs one SELECT and times it from outside: plain Execute when untraced;
/// when traced, ExplainAnalyze inside an "engine.select" span, so the
/// engine's phase trace and operator self times land under it.
Result<QueryResult> RunSelect(Database* db, Session* session,
                              const std::string& sql, Tracer* tracer,
                              uint64_t stmt, double* wall_s, double* cpu_s) {
  SpanScope span(tracer, "engine.select", stmt);
  const double c0 = ThreadCpuSeconds();
  const double t0 = Now();
  Result<QueryResult> r = Status::OK();
  if (tracer->enabled()) {
    auto analyzed = db->ExplainAnalyze(sql);
    if (analyzed.ok()) {
      r = std::move(analyzed.value().result);
    } else {
      r = analyzed.status();
    }
  } else {
    r = session != nullptr ? session->Execute(sql) : db->Execute(sql);
  }
  *wall_s = Now() - t0;
  *cpu_s = ThreadCpuSeconds() - c0;
  if (r.ok()) tracer->AddEngineBreakdown(span.id(), stmt, r.value());
  return r;
}

// ---- pass-based read workloads (fig2_cold, scan_warm) ---------------------

/// One read statement of a pass, with the checksum its rows must have.
struct ReadStatement {
  std::string label;
  std::string sql;
  uint64_t checksum = 0;
  bool serial = true;
  /// Client-side rewrite that must reproduce `sql` before each execution
  /// (Row(MV) and Row(Col)); null for statements issued as written.
  std::function<Result<std::string>()> rewrite;
  const char* rewrite_span = nullptr;
};

/// Per-statement modeled I/O and wall time of each untraced pass.
struct PassLog {
  std::vector<std::vector<double>> io_s;    ///< [pass][statement]
  std::vector<std::vector<double>> wall_s;  ///< [pass][statement]
};

/// Runs whole passes over `statements` in a seed-shuffled order until
/// `seconds` have elapsed, checking every result against its reference.
/// `counters` (traced phase) and `log` (untraced phase) may be null.
void RunPasses(Database* db, std::vector<ReadStatement>& statements,
               double seconds, Rng* rng, Tracer* tracer, uint64_t* next_stmt,
               PhaseStats* phase, StatementCounters* counters, PassLog* log,
               Report* report) {
  std::vector<size_t> order(statements.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  const double start = Now();
  do {
    Shuffle(&order, rng);
    Window window;
    const double pass_start = Now();
    const double pass_cpu = ProcessCpuSeconds();
    std::vector<double> pass_io(statements.size(), 0);
    std::vector<double> pass_wall(statements.size(), 0);
    for (size_t idx : order) {
      ReadStatement& st = statements[idx];
      const uint64_t stmt = (*next_stmt)++;
      if (st.rewrite) {
        SpanScope span(tracer, st.rewrite_span, stmt);
        auto sql = st.rewrite();
        if (!sql.ok() || sql.value() != st.sql) {
          report->Fail(st.label + ": rewrite did not reproduce the reference SQL");
        }
      }
      double wall = 0;
      double cpu = 0;
      auto r = RunSelect(db, nullptr, st.sql, tracer, stmt, &wall, &cpu);
      phase->statements++;
      window.statements++;
      if (!r.ok()) {
        phase->failed++;
        report->Fail(st.label + " failed: " + Describe(r.status()));
        continue;
      }
      if (ResultChecksum(r.value()) != st.checksum) {
        phase->failed++;
        report->Fail(st.label + ": checksum differs from the set-up reference");
      }
      window.read_ms.push_back(wall * 1e3);
      if (st.serial) {
        phase->serial_statements++;
        phase->serial_wall_s += wall;
        phase->serial_thread_cpu_s += cpu;
      }
      if (counters != nullptr) counters->Add(r.value());
      pass_io[idx] = r.value().io_seconds;
      pass_wall[idx] = wall;
    }
    window.seconds = Now() - pass_start;
    window.process_cpu_s = ProcessCpuSeconds() - pass_cpu;
    phase->windows.push_back(std::move(window));
    if (log != nullptr) {
      log->io_s.push_back(std::move(pass_io));
      log->wall_s.push_back(std::move(pass_wall));
    }
  } while (Now() - start < seconds);
}

/// Modeled-I/O figures over the untraced passes. The same cold statement's
/// modeled I/O can differ between identical passes (disk read-stream state
/// carries across statements); the spreads report it, unmasked.
void AddPassIoFigures(const PassLog& log, WorkloadFigures* figures) {
  if (log.io_s.empty()) return;
  std::vector<double> per_pass;
  for (const std::vector<double>& pass : log.io_s) {
    double sum = 0;
    for (double s : pass) sum += s;
    per_pass.push_back(sum);
  }
  figures->modeled_io_s = Median(per_pass);
  const auto [lo, hi] = std::minmax_element(per_pass.begin(), per_pass.end());
  figures->modeled_io_pass_spread =
      figures->modeled_io_s > 0 ? (*hi - *lo) / figures->modeled_io_s : 0;
  for (size_t s = 0; s < log.io_s.front().size(); s++) {
    double mn = log.io_s.front()[s];
    double mx = mn;
    for (const std::vector<double>& pass : log.io_s) {
      mn = std::min(mn, pass[s]);
      mx = std::max(mx, pass[s]);
    }
    figures->modeled_io_stmt_spread_ms =
        std::max(figures->modeled_io_stmt_spread_ms, (mx - mn) * 1e3);
  }
}

/// Runs every statement once to fill in its reference checksum.
bool RunReference(Database* db, std::vector<ReadStatement>* statements) {
  for (ReadStatement& st : *statements) {
    auto r = db->Execute(st.sql);
    if (!r.ok()) {
      std::fprintf(stderr, "reference %s failed: %s\n", st.label.c_str(),
                   Describe(r.status()).c_str());
      return false;
    }
    st.checksum = ResultChecksum(r.value());
  }
  return true;
}

/// Untraced phase, then (traced runs) the traced phase, then the metrics.
void RunReadWorkload(Database* db, std::vector<ReadStatement>& statements,
                     double setup_s, const RunOptions& options, Rng* rng,
                     Tracer* tracer,
                     const std::function<void(const PassLog&, WorkloadFigures*)>&
                         figures_fn,
                     Report* report) {
  uint64_t next_stmt = 1;
  PhaseStats untraced;
  PassLog log;
  tracer->set_enabled(false);
  RunPasses(db, statements, options.seconds, rng, tracer, &next_stmt, &untraced,
            nullptr, &log, report);
  report->attempted += untraced.statements;
  report->failed += untraced.failed;
  if (!options.trace) {
    AddEndToEnd(untraced, setup_s, report);
    return;
  }
  PhaseStats traced;
  StatementCounters counters;
  tracer->set_enabled(true);
  const EngineSnapshot before = Snapshot(db);
  RunPasses(db, statements, options.seconds, rng, tracer, &next_stmt, &traced,
            &counters, nullptr, report);
  const EngineSnapshot after = Snapshot(db);
  report->attempted += traced.statements;
  report->failed += traced.failed;
  AddPerLayer(*tracer, before, after, counters, traced, report);
  WorkloadFigures figures;
  AddPassIoFigures(log, &figures);
  if (figures_fn) figures_fn(log, &figures);
  AddWorkloadFigures(figures, untraced, traced, report);
}

}  // namespace

// ---- fig2_cold ------------------------------------------------------------

bool RunFig2Cold(const RunOptions& options, Tracer* tracer, Report* report) {
  Rig rig;
  auto setup_s = SetUpRepeatedly(3, [&] { rig = Rig{}; }, [&] {
    return SetUpTpch(0.01, options.seed, /*paper_structures=*/true,
                     DatabaseOptions{}, tracer, &rig);
  });
  if (!setup_s.ok()) {
    std::fprintf(stderr, "fig2_cold set-up failed: %s\n",
                 Describe(setup_s.status()).c_str());
    return false;
  }
  Database* db = rig.db.get();
  DateQuantiles shipdates;
  DateQuantiles orderdates;
  Status s = shipdates.Load(db, "lineitem", "l_shipdate");
  if (s.ok()) s = orderdates.Load(db, "orders", "o_orderdate");
  if (!s.ok()) {
    std::fprintf(stderr, "date quantiles failed: %s\n", Describe(s).c_str());
    return false;
  }

  // Statements 3p, 3p+1, 3p+2 are point p under Row, Row(MV), Row(Col).
  const std::vector<Point>& points = Figure2Points();
  std::vector<elephant::AnalyticQuery> queries;
  std::vector<double> colopt_s;
  for (const Point& p : points) {
    const std::string name = p.query;
    Value d = name == "Q7"   ? Value::Char("R")
              : name == "Q2" ? shipdates.ForFraction(0.5)
              : name == "Q5" ? orderdates.ForFraction(0.5)
              : (name == "Q1" || name == "Q3")
                  ? shipdates.ForFraction(p.selectivity)
                  : orderdates.ForFraction(p.selectivity);
    queries.push_back(elephant::paper::QueryByName(name, d));
  }
  std::vector<ReadStatement> statements;
  for (size_t i = 0; i < points.size(); i++) {
    const elephant::AnalyticQuery& query = queries[i];
    const std::string label = PointLabel(points[i]);
    const elephant::ProjectionMeta& meta =
        rig.projections.at(elephant::paper::ProjectionFor(query.name));
    elephant::cstore::ColOptModel model(db, meta);
    auto est = model.Estimate(query);
    if (!est.ok() || est.value().seconds <= 0) {
      std::fprintf(stderr, "ColOpt estimate failed for %s\n", label.c_str());
      return false;
    }
    colopt_s.push_back(est.value().seconds);
    // The join hint PaperBench::RunCol picks: unselective predicates over
    // uncollapsible multi-column chains get MERGE_JOIN, the rest LOOP_JOIN.
    elephant::cstore::RewriteOptions col_options;
    if (!query.filters.empty() && est.value().selectivity >= 0.4 &&
        query.ReferencedColumns().size() >= 2 &&
        !elephant::cstore::Rewriter(meta).RangeCollapseApplies(query)) {
      col_options.force_merge_join = true;
    }
    auto mv_rewrite = [&rig, &query]() { return rig.views->TryRewrite(query); };
    auto col_rewrite = [&meta, &query, col_options]() {
      return elephant::cstore::Rewriter(meta).Rewrite(query, col_options);
    };
    auto mv_sql = mv_rewrite();
    auto col_sql = col_rewrite();
    if (!mv_sql.ok() || !col_sql.ok()) {
      std::fprintf(stderr, "rewrite failed for %s\n", label.c_str());
      return false;
    }
    statements.push_back({label + "/Row", query.ToRowSql(), 0, true, nullptr,
                          nullptr});
    statements.push_back(
        {label + "/Row(MV)", mv_sql.value(), 0, true, mv_rewrite, "mv.rewrite"});
    statements.push_back({label + "/Row(Col)", col_sql.value(), 0, true,
                          col_rewrite, "cstore.rewrite"});
  }

  db->options().cold_cache = true;  // every statement starts cold
  if (!RunReference(db, &statements)) return false;
  for (size_t i = 0; i < points.size(); i++) {
    if (statements[3 * i].checksum != statements[3 * i + 1].checksum ||
        statements[3 * i].checksum != statements[3 * i + 2].checksum) {
      report->Fail(statements[3 * i].label +
                   ": Row, Row(MV) and Row(Col) results differ");
    }
  }

  Rng rng(options.seed);
  auto ratio = [&](const PassLog& log, WorkloadFigures* figures) {
    // Geometric mean over the points of Row(Col) median (wall + modeled
    // I/O) over ColOpt.
    double log_sum = 0;
    for (size_t i = 0; i < points.size(); i++) {
      std::vector<double> totals;
      for (size_t p = 0; p < log.io_s.size(); p++) {
        totals.push_back(log.wall_s[p][3 * i + 2] + log.io_s[p][3 * i + 2]);
      }
      log_sum += std::log(Median(totals) / colopt_s[i]);
    }
    figures->rowcol_over_colopt =
        std::exp(log_sum / static_cast<double>(points.size()));
  };
  RunReadWorkload(db, statements, setup_s.value(), options, &rng, tracer, ratio,
                  report);
  return true;
}

// ---- scan_warm ------------------------------------------------------------

bool RunScanWarm(const RunOptions& options, Tracer* tracer, Report* report) {
  Rig rig;
  DatabaseOptions db_options;
  db_options.worker_threads = 4;
  auto setup_s = SetUpRepeatedly(5, [&] { rig = Rig{}; }, [&] {
    return SetUpTpch(0.02, options.seed, /*paper_structures=*/false,
                     db_options, tracer, &rig);
  });
  if (!setup_s.ok()) {
    std::fprintf(stderr, "scan_warm set-up failed: %s\n",
                 Describe(setup_s.status()).c_str());
    return false;
  }
  Database* db = rig.db.get();
  DateQuantiles shipdates;
  Status s = shipdates.Load(db, "lineitem", "l_shipdate");
  if (!s.ok()) {
    std::fprintf(stderr, "date quantiles failed: %s\n", Describe(s).c_str());
    return false;
  }

  // Single-table Row statements of Figure 2 plus bench_parallel's TPC-H
  // Q1-shaped aggregate, each serial and PARALLEL 4.
  std::vector<std::pair<std::string, std::string>> base;
  for (const Point& p : Figure2Points()) {
    const std::string name = p.query;
    if (name != "Q1" && name != "Q2" && name != "Q3") continue;
    const Value d = shipdates.ForFraction(p.selectivity < 0 ? 0.5 : p.selectivity);
    base.emplace_back(PointLabel(p),
                      elephant::paper::QueryByName(name, d).ToRowSql());
  }
  base.emplace_back(
      "Q1-agg",
      "SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), "
      "SUM(l_extendedprice), AVG(l_extendedprice), AVG(l_discount), "
      "MIN(l_shipdate), MAX(l_shipdate) "
      "FROM lineitem GROUP BY l_returnflag, l_linestatus "
      "ORDER BY l_returnflag, l_linestatus");
  std::vector<ReadStatement> statements;
  for (const auto& [label, sql] : base) {
    statements.push_back({label + "/serial", sql, 0, true, nullptr, nullptr});
    statements.push_back({label + "/parallel4", "/*+ PARALLEL 4 */ " + sql, 0,
                          false, nullptr, nullptr});
  }
  // The reference pass doubles as the warm-up that fills the pool.
  if (!RunReference(db, &statements)) return false;
  for (size_t i = 0; i < statements.size(); i += 2) {
    if (statements[i].checksum != statements[i + 1].checksum) {
      report->Fail(statements[i].label + ": serial and PARALLEL 4 differ");
    }
  }
  Rng rng(options.seed);
  RunReadWorkload(db, statements, setup_s.value(), options, &rng, tracer,
                  nullptr, report);
  return true;
}

// ---- oltp_wal -------------------------------------------------------------

namespace {

constexpr int kSessions = 2;
constexpr int64_t kRowsPerSession = 10000;
constexpr int64_t kInsertBatch = 500;  ///< rows per set-up INSERT statement
static_assert(kRowsPerSession % kInsertBatch == 0);
constexpr int kCheckpointEvery = 1000;

struct Account {
  int64_t grp = 0;
  int64_t bal = 0;
  std::string note;
};

/// One session's key range and the rows its acknowledged statements imply.
/// Sessions write disjoint ranges, so each can check its reads exactly.
struct Partition {
  int64_t next_id = 0;
  std::map<int64_t, Account> rows;
  std::vector<int64_t> ids;                   ///< for uniform picks
  std::unordered_map<int64_t, size_t> where;  ///< id -> index in ids

  void Put(int64_t id, Account a) {
    rows[id] = std::move(a);
    where[id] = ids.size();
    ids.push_back(id);
  }
  void Erase(int64_t id) {
    rows.erase(id);
    const size_t i = where[id];
    where[ids.back()] = i;
    ids[i] = ids.back();
    ids.pop_back();
    where.erase(id);
  }
  int64_t Pick(Rng* rng) const {
    return ids[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(ids.size()) - 1))];
  }
};

Account RandomAccount(Rng* rng) {
  Account a;
  a.grp = rng->Uniform(0, 15);
  a.bal = rng->Uniform(0, 1000000);
  char note[24];
  std::snprintf(note, sizeof(note), "n%016llx",
                static_cast<unsigned long long>(rng->Next()));
  a.note = note;
  return a;
}

std::string ValuesTuple(int64_t id, const Account& a) {
  return "(" + std::to_string(id) + ", " + std::to_string(a.grp) + ", " +
         std::to_string(a.bal) + ", '" + a.note + "')";
}

Status SetUpAccounts(uint64_t seed, std::unique_ptr<Database>* db,
                     std::vector<Partition>* parts) {
  DatabaseOptions db_options;
  db_options.wal_enabled = true;
  *db = std::make_unique<Database>(db_options);
  ELE_RETURN_NOT_OK((*db)->Execute("CREATE TABLE acct (id BIGINT, grp INT, "
                                   "bal BIGINT, note VARCHAR) CLUSTER BY (id)")
                        .status());
  parts->assign(kSessions, Partition{});
  Rng rng(seed);
  for (int s = 0; s < kSessions; s++) {
    Partition& part = (*parts)[s];
    const int64_t base = (s + 1) * 100000000LL;
    part.next_id = base + kRowsPerSession;
    std::string sql;
    for (int64_t j = 0; j < kRowsPerSession; j++) {
      Account a = RandomAccount(&rng);
      sql += (sql.empty() ? "INSERT INTO acct VALUES " : ", ") +
             ValuesTuple(base + j, a);
      part.Put(base + j, std::move(a));
      if ((j + 1) % kInsertBatch == 0) {
        ELE_RETURN_NOT_OK((*db)->Execute(sql).status());
        sql.clear();
      }
    }
  }
  return (*db)->Execute("CHECKPOINT").status();
}

/// COUNT(*) and SUM(bal) of acct must equal what the partitions imply.
void CheckTotals(Database* db, const std::vector<Partition>& parts,
                 const std::string& when, Report* report) {
  int64_t count = 0;
  int64_t sum = 0;
  for (const Partition& p : parts) {
    for (const auto& [id, a] : p.rows) {
      count++;
      sum += a.bal;
    }
  }
  auto r = db->Execute("SELECT COUNT(*), SUM(bal) FROM acct");
  if (!r.ok() || r.value().rows.size() != 1 ||
      r.value().rows[0][0].AsInt64() != count ||
      r.value().rows[0][1].AsInt64() != sum) {
    report->Fail(when + ": COUNT(*)/SUM(bal) of acct differ from the " +
                 std::to_string(count) + " rows / " + std::to_string(sum) +
                 " the acknowledged statements imply");
  }
}

/// One closed-loop client: 50 % point SELECT, 20 % 100-id range aggregate,
/// 20 % single-row UPDATE, 10 % DELETE/INSERT alternating so the row count
/// stays put. Session 0 also checkpoints every kCheckpointEvery statements.
/// Failed statements (lock timeouts, aborts) count against `phase` and are
/// not retried; wrong results fail the report.
struct OltpClient {
  Database* db;
  Session* session;
  Partition* part;
  Rng* rng;
  bool checkpointer;
  Tracer* tracer;
  std::atomic<uint64_t>* next_stmt;
  Report* report;
  uint64_t issued = 0;

  /// Completion time, kind and latency of each successful statement.
  enum class Kind { kRead, kWrite, kCheckpoint };
  struct Sample {
    double end;
    Kind kind;
    double ms;
  };
  std::vector<Sample> samples;

  void Run(double start, double seconds, PhaseStats* phase,
           StatementCounters* counters) {
    samples.clear();
    while (Now() - start < seconds) Step(phase, counters);
  }

  void Step(PhaseStats* phase, StatementCounters* counters) {
    const uint64_t stmt = next_stmt->fetch_add(1);
    issued++;
    if (checkpointer && issued % kCheckpointEvery == 0) {
      SpanScope span(tracer, "wal.checkpoint", stmt);
      const double t0 = Now();
      auto r = session->Execute("CHECKPOINT");
      phase->statements++;
      if (!r.ok()) return Failed(phase, "CHECKPOINT", r.status());
      samples.push_back({Now(), Kind::kCheckpoint, (Now() - t0) * 1e3});
      return;
    }
    const int64_t op = rng->Uniform(0, 99);
    if (op < 70) {
      Read(op < 50, stmt, phase, counters);
    } else {
      Write(op < 90, stmt, phase, counters);
    }
  }

  void Failed(PhaseStats* phase, const std::string& sql, const Status& s) {
    phase->failed++;
    if (phase->failed <= 5) {
      std::fprintf(stderr, "statement failed (%s): %s\n", sql.c_str(),
                   Describe(s).c_str());
    }
  }

  void Read(bool point, uint64_t stmt, PhaseStats* phase,
            StatementCounters* counters) {
    const int64_t id = part->Pick(rng);
    const std::string sql =
        point ? "SELECT grp, bal, note FROM acct WHERE id = " + std::to_string(id)
              : "SELECT grp, COUNT(*), SUM(bal) FROM acct WHERE id BETWEEN " +
                    std::to_string(id) + " AND " + std::to_string(id + 99) +
                    " GROUP BY grp";
    double wall = 0;
    double cpu = 0;
    auto r = RunSelect(db, session, sql, tracer, stmt, &wall, &cpu);
    phase->statements++;
    if (!r.ok()) return Failed(phase, sql, r.status());
    samples.push_back({Now(), Kind::kRead, wall * 1e3});
    phase->serial_statements++;
    phase->serial_wall_s += wall;
    phase->serial_thread_cpu_s += cpu;
    if (counters != nullptr) counters->Add(r.value());
    const std::vector<elephant::Row>& rows = r.value().rows;
    bool ok = true;
    if (point) {
      const Account& a = part->rows.at(id);
      ok = rows.size() == 1 && rows[0][0].AsInt64() == a.grp &&
           rows[0][1].AsInt64() == a.bal && rows[0][2].AsString() == a.note;
    } else {
      std::map<int64_t, std::pair<int64_t, int64_t>> want;
      for (auto it = part->rows.lower_bound(id);
           it != part->rows.end() && it->first <= id + 99; ++it) {
        want[it->second.grp].first++;
        want[it->second.grp].second += it->second.bal;
      }
      ok = rows.size() == want.size();
      for (const elephant::Row& row : rows) {
        auto w = want.find(row[0].AsInt64());
        ok = ok && w != want.end() && row[1].AsInt64() == w->second.first &&
             row[2].AsInt64() == w->second.second;
      }
    }
    if (!ok) {
      phase->failed++;
      report->Fail("wrong result for " + sql);
    }
  }

  void Write(bool update, uint64_t stmt, PhaseStats* phase,
             StatementCounters* counters) {
    enum { kUpdate, kDelete, kInsert } kind;
    int64_t id;
    Account fresh;
    std::string sql;
    if (update) {
      kind = kUpdate;
      id = part->Pick(rng);
      sql = "UPDATE acct SET bal = bal + 1 WHERE id = " + std::to_string(id);
    } else if (part->rows.size() >= static_cast<size_t>(kRowsPerSession)) {
      kind = kDelete;
      id = part->Pick(rng);
      sql = "DELETE FROM acct WHERE id = " + std::to_string(id);
    } else {
      kind = kInsert;
      id = part->next_id++;
      fresh = RandomAccount(rng);
      sql = "INSERT INTO acct VALUES " + ValuesTuple(id, fresh);
    }
    SpanScope span(tracer, "engine.dml", stmt);
    const double c0 = ThreadCpuSeconds();
    const double t0 = Now();
    auto r = session->Execute(sql);
    const double wall = Now() - t0;
    const double cpu = ThreadCpuSeconds() - c0;
    phase->statements++;
    if (!r.ok()) return Failed(phase, sql, r.status());
    samples.push_back({Now(), Kind::kWrite, wall * 1e3});
    phase->serial_statements++;
    phase->serial_wall_s += wall;
    phase->serial_thread_cpu_s += cpu;
    if (counters != nullptr) counters->Add(r.value());
    if (r.value().counters.rows_output != 1) {
      phase->failed++;
      report->Fail("expected one changed row for " + sql);
      return;
    }
    if (kind == kUpdate) {
      part->rows.at(id).bal++;
    } else if (kind == kDelete) {
      part->Erase(id);
    } else {
      part->Put(id, std::move(fresh));
    }
  }
};

/// Both sessions for `seconds`, each on its own thread. The calling thread
/// samples process CPU at every whole second; statements finishing after
/// the last whole second count as attempted but fall in no window.
void RunOltpPhase(std::vector<OltpClient>& clients, double seconds,
                  PhaseStats* phase, StatementCounters* counters) {
  std::vector<PhaseStats> phases(clients.size());
  std::vector<StatementCounters> per_client(clients.size());
  const double start = Now();
  std::vector<double> cpu_marks = {ProcessCpuSeconds()};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); i++) {
    threads.emplace_back([&, i]() {
      clients[i].Run(start, seconds, &phases[i], &per_client[i]);
    });
  }
  const int num_windows = std::max(1, static_cast<int>(seconds));
  for (int k = 1; k <= num_windows; k++) {
    const double wait = start + k - Now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    cpu_marks.push_back(ProcessCpuSeconds());
  }
  for (std::thread& t : threads) t.join();
  phase->windows.assign(num_windows, Window{});
  for (int k = 0; k < num_windows; k++) {
    phase->windows[k].seconds = 1;
    phase->windows[k].process_cpu_s = cpu_marks[k + 1] - cpu_marks[k];
  }
  for (size_t i = 0; i < clients.size(); i++) {
    phase->Merge(phases[i]);
    if (counters != nullptr) counters->Merge(per_client[i]);
    for (const OltpClient::Sample& sample : clients[i].samples) {
      const int k = static_cast<int>(sample.end - start);
      if (k < 0 || k >= num_windows) continue;
      Window& w = phase->windows[k];
      w.statements++;
      if (sample.kind == OltpClient::Kind::kRead) w.read_ms.push_back(sample.ms);
      if (sample.kind == OltpClient::Kind::kWrite) w.write_ms.push_back(sample.ms);
    }
  }
}

}  // namespace

bool RunOltpWal(const RunOptions& options, Tracer* tracer, Report* report) {
  std::unique_ptr<Database> db;
  std::vector<Partition> parts;
  auto setup_s =
      SetUpRepeatedly(11, [&] { db.reset(); },
                      [&] { return SetUpAccounts(options.seed, &db, &parts); });
  if (!setup_s.ok()) {
    std::fprintf(stderr, "oltp_wal set-up failed: %s\n",
                 Describe(setup_s.status()).c_str());
    return false;
  }

  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::atomic<uint64_t> next_stmt{1};
  std::vector<OltpClient> clients;
  for (int s = 0; s < kSessions; s++) {
    sessions.push_back(std::make_unique<Session>(db.get(), s));
    rngs.push_back(std::make_unique<Rng>(options.seed * 1000003 + s + 1));
    clients.push_back(OltpClient{db.get(), sessions.back().get(), &parts[s],
                                 rngs.back().get(), s == 0, tracer, &next_stmt,
                                 report, 0, {}});
  }

  PhaseStats untraced;
  tracer->set_enabled(false);
  RunOltpPhase(clients, options.seconds, &untraced, nullptr);
  report->attempted += untraced.statements;
  report->failed += untraced.failed;
  PhaseStats traced;
  StatementCounters counters;
  EngineSnapshot before;
  EngineSnapshot after;
  if (options.trace) {
    tracer->set_enabled(true);
    before = Snapshot(db.get());
    RunOltpPhase(clients, options.seconds, &traced, &counters);
    after = Snapshot(db.get());
    report->attempted += traced.statements;
    report->failed += traced.failed;
  }

  // Durability: every acknowledged statement must survive a simulated
  // reboot from what stable storage holds.
  CheckTotals(db.get(), parts, "before the crash image", report);
  elephant::DurableImage image = db->CloneDurableImage();
  clients.clear();
  sessions.clear();
  db.reset();
  {
    SpanScope span(tracer, "wal.reopen", 0);
    DatabaseOptions db_options;
    db_options.wal_enabled = true;
    auto reopened = Database::Reopen(db_options, std::move(image));
    if (!reopened.ok()) {
      report->Fail("Reopen failed: " + Describe(reopened.status()));
    } else {
      CheckTotals(reopened.value().get(), parts, "after Reopen", report);
    }
  }

  if (!options.trace) {
    AddEndToEnd(untraced, setup_s.value(), report);
    return true;
  }
  AddPerLayer(*tracer, before, after, counters, traced, report);
  AddWorkloadFigures(WorkloadFigures{}, untraced, traced, report);
  return true;
}

}  // namespace perfbench
