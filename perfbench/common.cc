#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "obs/json.h"
#include "obs/plan_stats.h"
#include "obs/stat_statements.h"
#include "perf.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

std::string Report::ToJson() const {
  // Hand-written rather than obs::JsonWriter, which rounds doubles to nine
  // significant digits; metric values are printed with all of theirs.
  // Metric names and units are plain identifiers and need no escaping.
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char value[64] = "null";  // main() fails the run on a non-finite value
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    }
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void PhaseStats::Merge(const PhaseStats& o) {
  statements += o.statements;
  failed += o.failed;
  serial_thread_cpu_s += o.serial_thread_cpu_s;
  serial_wall_s += o.serial_wall_s;
  serial_statements += o.serial_statements;
}

namespace {

template <typename F>
double MedianOverWindows(const std::vector<Window>& windows, F figure) {
  std::vector<double> values;
  for (const Window& w : windows) {
    if (w.statements > 0 && w.seconds > 0) values.push_back(figure(w));
  }
  return Median(std::move(values));
}

double PooledQuantile(const std::vector<Window>& windows,
                      std::vector<double> Window::*samples, double q) {
  std::vector<double> all;
  for (const Window& w : windows) {
    all.insert(all.end(), (w.*samples).begin(), (w.*samples).end());
  }
  return Quantile(std::move(all), q);
}

}  // namespace

double PhaseStats::Qps() const {
  return MedianOverWindows(windows, [](const Window& w) {
    return static_cast<double>(w.statements) / w.seconds;
  });
}

double PhaseStats::CpuMsPerStmt() const {
  return MedianOverWindows(windows, [](const Window& w) {
    return w.process_cpu_s * 1e3 / static_cast<double>(w.statements);
  });
}

double PhaseStats::ReadMs(double q) const {
  return PooledQuantile(windows, &Window::read_ms, q);
}

double PhaseStats::WriteMs(double q) const {
  return PooledQuantile(windows, &Window::write_ms, q);
}

void AddEndToEnd(const PhaseStats& phase, double setup_s, Report* report) {
  report->Add("setup_s", setup_s, "s");
  report->Add("throughput_qps", phase.Qps(), "1/s");
  report->Add("read_p50_ms", phase.ReadMs(0.5), "ms");
  report->Add("read_p95_ms", phase.ReadMs(0.95), "ms");
  report->Add("cpu_ms_per_stmt", phase.CpuMsPerStmt(), "ms");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

// ---- Tracer ---------------------------------------------------------------

int64_t Tracer::Begin(const std::string& name, uint64_t stmt, int64_t parent) {
  const double start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, start, parent, stmt, false});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t id) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

int64_t Tracer::Add(const std::string& name, double start, double seconds,
                    int64_t parent, uint64_t stmt, bool derived) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, start + seconds, parent, stmt, derived});
  return static_cast<int64_t>(spans_.size() - 1);
}

namespace {

// Operator class of an EXPLAIN ANALYZE node label, by the layer it runs in.
const char* OperatorSpanName(const std::string& op_class) {
  if (op_class.find("Join") != std::string::npos ||
      op_class == "NestedProduct") {
    return "exec.join";
  }
  if (op_class.find("Scan") != std::string::npos ||
      op_class.find("Seek") != std::string::npos) {
    return "exec.scan";
  }
  if (op_class.find("Aggregate") != std::string::npos) return "exec.agg";
  return "exec.other";
}

}  // namespace

void Tracer::AddEngineBreakdown(int64_t parent, uint64_t stmt,
                                const QueryResult& result) {
  if (!enabled_ || parent < 0 || result.trace == nullptr) return;
  double start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    start = spans_[static_cast<size_t>(parent)].start;
  }
  int64_t execute = -1;
  double execute_start = start;
  for (const elephant::obs::SpanRecord& phase : result.trace->spans) {
    if (phase.depth != 0) continue;
    static const std::map<std::string, std::string> kPhaseSpan = {
        {"parse", "parser.parse"},
        {"bind", "planner.bind"},
        {"plan", "planner.plan"},
        {"execute", "exec.execute"}};
    auto it = kPhaseSpan.find(phase.name);
    if (it == kPhaseSpan.end()) continue;
    const int64_t id = Add(it->second, start, phase.seconds, parent, stmt,
                           /*derived=*/true);
    if (phase.name == "execute") {
      execute = id;
      execute_start = start;
    }
    start += phase.seconds;
  }
  if (execute < 0 || result.plan == nullptr) return;
  std::map<std::string, double> by_class;
  for (const elephant::obs::OperatorBreakdown& op :
       elephant::obs::FlattenPlan(*result.plan)) {
    by_class[OperatorSpanName(elephant::obs::OperatorClassOf(op.op))] +=
        op.seconds;
  }
  for (const auto& [name, seconds] : by_class) {
    if (seconds <= 0) continue;
    Add(name, execute_start, seconds, execute, stmt, /*derived=*/true);
    execute_start += seconds;
  }
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_seconds(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_seconds[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); i++) {
    const double duration = spans_[i].end - spans_[i].start;
    NameTotals& t = totals[spans_[i].name];
    t.count++;
    t.total_s += duration;
    t.self_s += std::max(0.0, duration - child_seconds[i]);
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    elephant::obs::JsonWriter w;
    w.BeginObject();
    w.Key("id").UInt(i);
    w.Key("name").String(s.name);
    w.Key("start_us").Double((s.start - origin) * 1e6);
    w.Key("end_us").Double((s.end - origin) * 1e6);
    w.Key("parent").Int(s.parent);
    w.Key("stmt").UInt(s.stmt);
    w.Key("derived").Bool(s.derived);
    w.EndObject();
    std::fprintf(f, "%s\n", std::move(w).str().c_str());
  }
  return std::fclose(f) == 0;
}

// ---- engine counters ------------------------------------------------------

EngineSnapshot Snapshot(Database* db) {
  EngineSnapshot s;
  s.at = Now();
  s.pool = db->pool().stats();
  s.disk = db->disk().stats();
  if (db->wal() != nullptr) s.wal = db->wal()->stats();
  if (db->txn_manager() != nullptr) s.txn = db->txn_manager()->stats();
  if (db->lock_manager() != nullptr) s.locks = db->lock_manager()->wait_stats();
  auto sched = db->Execute("SELECT worker_threads FROM elephant_stat_scheduler");
  if (sched.ok() && !sched.value().rows.empty() &&
      sched.value().rows[0][0].AsInt64() > 0) {
    elephant::sched::ThreadPool* pool = db->workers();  // exists already
    s.sched_tasks = pool->tasks_executed();
    s.sched_busy_s = pool->BusySeconds();
    s.sched_threads = pool->num_threads();
  }
  return s;
}

void StatementCounters::Add(const QueryResult& result) {
  index_seeks += result.counters.index_seeks;
  rows_scanned += result.counters.rows_scanned;
  if (result.plan != nullptr) {
    for (const elephant::obs::OperatorBreakdown& op :
         elephant::obs::FlattenPlan(*result.plan)) {
      if (std::string(OperatorSpanName(elephant::obs::OperatorClassOf(op.op))) ==
          "exec.join") {
        join_rows += op.rows;
      }
    }
  }
  for (int c = 0; c < 6; c++) {
    wait_s[c] += result.wait_profile.ClassSeconds(
        static_cast<elephant::obs::WaitClass>(c));
  }
}

void StatementCounters::Merge(const StatementCounters& o) {
  index_seeks += o.index_seeks;
  rows_scanned += o.rows_scanned;
  join_rows += o.join_rows;
  for (int c = 0; c < 6; c++) wait_s[c] += o.wait_s[c];
}

void AddPerLayer(const Tracer& tracer, const EngineSnapshot& before,
                 const EngineSnapshot& after, const StatementCounters& counters,
                 const PhaseStats& traced, Report* report) {
  const double n = std::max<double>(1, static_cast<double>(traced.statements));
  const std::map<std::string, Tracer::NameTotals> spans = tracer.Totals();
  auto self_ms = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_s * 1e3 / n;
  };
  // Mean duration of one call (set-up steps, rewrites, checkpoints).
  auto mean_s = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s / static_cast<double>(it->second.count);
  };
  auto per_stmt = [&](double count) { return count / n; };

  // exec: operator self time from EXPLAIN ANALYZE, counters from the result.
  report->Add("exec.join_self_ms", self_ms("exec.join"), "ms/stmt");
  report->Add("exec.join_rows", per_stmt(counters.join_rows), "count/stmt");
  report->Add("exec.scan_self_ms", self_ms("exec.scan"), "ms/stmt");
  report->Add("exec.agg_self_ms", self_ms("exec.agg"), "ms/stmt");
  report->Add("exec.other_self_ms",
              self_ms("exec.other") + self_ms("exec.execute"), "ms/stmt");
  report->Add("exec.rows_scanned", per_stmt(counters.rows_scanned),
              "count/stmt");
  report->Add("index.seeks", per_stmt(counters.index_seeks), "count/stmt");

  // sched: the morsel worker pool.
  const double elapsed = after.at - before.at;
  const double busy = after.sched_busy_s - before.sched_busy_s;
  report->Add("sched.tasks",
              per_stmt(static_cast<double>(after.sched_tasks - before.sched_tasks)),
              "count/stmt");
  report->Add("sched.busy_s", per_stmt(busy), "s/stmt");
  report->Add("sched.utilization",
              after.sched_threads > 0 && elapsed > 0
                  ? busy / (elapsed * static_cast<double>(after.sched_threads))
                  : 0,
              "ratio");

  // storage: buffer pool and the simulated disk.
  const uint64_t hits = after.pool.hits - before.pool.hits;
  const uint64_t misses = after.pool.misses - before.pool.misses;
  const elephant::IoStats io = after.disk - before.disk;
  report->Add("storage.pool_hits", per_stmt(static_cast<double>(hits)),
              "count/stmt");
  report->Add("storage.pool_misses", per_stmt(static_cast<double>(misses)),
              "count/stmt");
  report->Add("storage.hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) /
                                      static_cast<double>(hits + misses)
                                : 0,
              "ratio");
  report->Add("storage.evictions",
              per_stmt(static_cast<double>(after.pool.evictions -
                                           before.pool.evictions)),
              "count/stmt");
  report->Add("storage.seq_reads", per_stmt(static_cast<double>(io.sequential_reads)),
              "count/stmt");
  report->Add("storage.rand_reads", per_stmt(static_cast<double>(io.random_reads)),
              "count/stmt");
  report->Add("storage.prefetch_useful_ratio",
              io.readahead.pages_prefetched > 0
                  ? static_cast<double>(io.readahead.prefetch_hits) /
                        static_cast<double>(io.readahead.pages_prefetched)
                  : 0,
              "ratio");
  report->Add("storage.page_writes", per_stmt(static_cast<double>(io.page_writes)),
              "count/stmt");
  report->Add("storage.fsyncs", per_stmt(static_cast<double>(io.fsyncs)),
              "count/stmt");

  // parser / planner / engine: the statement's phases; engine.remainder_ms
  // is SELECT wall time outside them (locks, cold-cache eviction, result
  // hand-off), engine.dml_ms the whole of INSERT/UPDATE/DELETE, for which
  // the engine reports no phase trace.
  report->Add("parser.parse_ms", self_ms("parser.parse"), "ms/stmt");
  report->Add("planner.bind_ms", self_ms("planner.bind"), "ms/stmt");
  report->Add("planner.plan_ms", self_ms("planner.plan"), "ms/stmt");
  report->Add("engine.remainder_ms", self_ms("engine.select"), "ms/stmt");
  report->Add("engine.dml_ms", self_ms("engine.dml"), "ms/stmt");

  // wal / txn.
  const uint64_t commits = after.txn.committed - before.txn.committed;
  report->Add("wal.records",
              per_stmt(static_cast<double>(after.wal.records_appended -
                                           before.wal.records_appended)),
              "count/stmt");
  report->Add("wal.bytes_per_commit",
              commits > 0 ? static_cast<double>(after.wal.bytes_appended -
                                                before.wal.bytes_appended) /
                                static_cast<double>(commits)
                          : 0,
              "B/commit");
  report->Add("wal.flushes",
              per_stmt(static_cast<double>(after.wal.flushes - before.wal.flushes)),
              "count/stmt");
  report->Add("wal.checkpoint_ms", mean_s("wal.checkpoint") * 1e3, "ms");
  report->Add("txn.commits", per_stmt(static_cast<double>(commits)), "count/stmt");
  report->Add("txn.aborts",
              static_cast<double>(after.txn.aborted - before.txn.aborted), "count");
  report->Add("txn.lock_wait_ms",
              per_stmt(static_cast<double>(after.locks.wait_nanos -
                                           before.locks.wait_nanos) /
                       1e6),
              "ms/stmt");
  report->Add("txn.lock_timeouts",
              static_cast<double>(after.locks.timeouts - before.locks.timeouts),
              "count");

  // obs: where statements waited, by wait class.
  static const char* kClassMetric[6] = {"lwlock", "lock",    "io",
                                        "wal",    "condvar", "scheduler"};
  for (int c = 0; c < 6; c++) {
    report->Add(std::string("obs.wait_ms.") + kClassMetric[c],
                per_stmt(counters.wait_s[c] * 1e3), "ms/stmt");
  }

  // Set-up layers (mean per set-up) and client-side rewrites (per call).
  auto per_setup = [&](const std::string& name) {
    auto it = spans.find(name);
    auto setups = spans.find("tpch.load");
    return it == spans.end() || setups == spans.end()
               ? 0.0
               : it->second.total_s / static_cast<double>(setups->second.count);
  };
  report->Add("tpch.load_s", per_setup("tpch.load"), "s");
  report->Add("cstore.ctable_build_s", per_setup("cstore.ctable_build"), "s");
  report->Add("mv.view_build_s", per_setup("mv.view_build"), "s");
  report->Add("cstore.rewrite_ms", mean_s("cstore.rewrite") * 1e3, "ms");
  report->Add("mv.rewrite_ms", mean_s("mv.rewrite") * 1e3, "ms");
}

void AddWorkloadFigures(const WorkloadFigures& figures,
                        const PhaseStats& untraced, const PhaseStats& traced,
                        Report* report) {
  report->Add("write_p50_ms", untraced.WriteMs(0.5), "ms");
  report->Add("write_p95_ms", untraced.WriteMs(0.95), "ms");
  report->Add("modeled_io_s", figures.modeled_io_s, "s");
  report->Add("rowcol_over_colopt", figures.rowcol_over_colopt, "ratio");
  report->Add("failed_ratio",
              untraced.statements + traced.statements > 0
                  ? static_cast<double>(untraced.failed + traced.failed) /
                        static_cast<double>(untraced.statements + traced.statements)
                  : 0,
              "ratio");
  report->Add("storage.modeled_io_pass_spread", figures.modeled_io_pass_spread,
              "ratio");
  report->Add("storage.modeled_io_stmt_spread_ms",
              figures.modeled_io_stmt_spread_ms, "ms");
  auto serial = [](const PhaseStats& p, double PhaseStats::*field) {
    return p.serial_statements > 0
               ? p.*field * 1e3 / static_cast<double>(p.serial_statements)
               : 0;
  };
  report->Add("cpu.serial_thread_ms",
              serial(untraced, &PhaseStats::serial_thread_cpu_s), "ms/stmt");
  report->Add("cpu.serial_wall_ms", serial(untraced, &PhaseStats::serial_wall_s),
              "ms/stmt");
  report->Add("trace.qps_untraced", untraced.Qps(), "1/s");
  report->Add("trace.qps_traced", traced.Qps(), "1/s");
  report->Add("trace.overhead_ratio",
              traced.Qps() > 0 ? untraced.Qps() / traced.Qps() : 0, "ratio");
}

}  // namespace perfbench
