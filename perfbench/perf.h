#pragma once

// Shared pieces of the repository benchmark (elephant_perf): run options,
// the result report, clocks read from outside the engine, the in-memory
// span recorder of the traced run, and engine-counter snapshots.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/database.h"

namespace perfbench {

using elephant::Database;
using elephant::QueryResult;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

/// What the benchmark prints as its last line: correctness, statement
/// accounting and named metrics with units.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Marks the run incorrect and says why on stderr (thread-safe).
  void Fail(const std::string& why);
  std::string ToJson() const;

 private:
  std::mutex mu_;
};

// ---- clocks ---------------------------------------------------------------

/// Steady-clock seconds.
double Now();
/// User + system CPU seconds of the whole process (every thread, including
/// the engine's morsel workers), from getrusage.
double ProcessCpuSeconds();
/// CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One slice of a timed phase: a pass over the statement mix (fig2_cold,
/// scan_warm) or one second (oltp_wal).
struct Window {
  double seconds = 0;
  double process_cpu_s = 0;
  uint64_t statements = 0;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
};

/// Latency and CPU samples of one timed phase. Throughput and CPU per
/// statement are medians over the phase's windows, so a burst of host noise
/// shorter than half the phase does not move them. Latency percentiles pool
/// every sample of the phase, so p95 has enough samples beyond it.
struct PhaseStats {
  std::vector<Window> windows;
  uint64_t statements = 0;  ///< attempted, inside a window or not
  uint64_t failed = 0;
  /// Serial statements only: calling-thread CPU next to wall time.
  double serial_thread_cpu_s = 0;
  double serial_wall_s = 0;
  uint64_t serial_statements = 0;

  /// Adds another client's statement and serial-CPU counts (oltp_wal
  /// builds the shared windows itself).
  void Merge(const PhaseStats& o);
  double Qps() const;
  double CpuMsPerStmt() const;
  double ReadMs(double q) const;
  double WriteMs(double q) const;
};

/// Adds the end-to-end metrics every workload reports (trace 0).
void AddEndToEnd(const PhaseStats& phase, double setup_s, Report* report);

// ---- tracing --------------------------------------------------------------

/// One span: a named interval at a layer boundary, its parent span (-1 for
/// a root) and the statement it belongs to (0 outside statements). Spans
/// marked `derived` are not timed by the benchmark: they lay out durations
/// the engine reported (phase trace, operator self time) under the
/// statement span the benchmark timed, so they carry correct durations but
/// only approximate start times.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t parent = -1;
  uint64_t stmt = 0;
  bool derived = false;
};

/// In-memory span recorder of the traced run; inert while disabled.
/// Recording is thread-safe (the oltp workload records from two client
/// threads); set_enabled is called only while no client thread runs.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  int64_t Begin(const std::string& name, uint64_t stmt, int64_t parent = -1);
  void End(int64_t id);
  /// Adds a finished span with a known duration.
  int64_t Add(const std::string& name, double start, double seconds,
              int64_t parent, uint64_t stmt, bool derived);

  /// Records the engine's own breakdown of a finished statement under the
  /// statement span `parent`: phase spans from QueryResult::trace (parse,
  /// bind, plan, execute) and, for instrumented runs, operator self time
  /// grouped into exec.scan / exec.join / exec.agg / exec.other.
  void AddEngineBreakdown(int64_t parent, uint64_t stmt,
                          const QueryResult& result);

  struct NameTotals {
    uint64_t count = 0;
    double total_s = 0;  ///< summed span durations
    double self_s = 0;   ///< durations minus the time children cover
  };
  /// Totals per span name. A span's self time is its duration minus the
  /// summed durations of its children, floored at 0 (operator self times of
  /// a PARALLEL plan are summed over workers and can exceed the wall time).
  std::map<std::string, NameTotals> Totals() const;

  /// Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, uint64_t stmt,
            int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer->enabled() ? tracer->Begin(name, stmt, parent) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---- engine counters ------------------------------------------------------

/// Cumulative engine counters read through public accessors, so the traced
/// phase can report deltas.
struct EngineSnapshot {
  elephant::BufferPoolStats pool;
  elephant::IoStats disk;
  elephant::wal::WalStats wal;
  elephant::txn::TxnStats txn;
  elephant::txn::LockManager::LockWaitStats locks;
  uint64_t sched_tasks = 0;
  double sched_busy_s = 0;
  size_t sched_threads = 0;
  double at = 0;
};

/// Reads the counters. The worker pool is inspected only when
/// elephant_stat_scheduler says it exists: Database::workers() would create
/// it, and workloads without PARALLEL statements must keep sched at zero.
EngineSnapshot Snapshot(Database* db);

/// Per-statement accumulators of the traced phase that come from
/// QueryResult rather than from spans.
struct StatementCounters {
  uint64_t index_seeks = 0;
  uint64_t rows_scanned = 0;
  uint64_t join_rows = 0;
  double wait_s[6] = {0, 0, 0, 0, 0, 0};  ///< per obs::WaitClass

  void Add(const QueryResult& result);
  void Merge(const StatementCounters& o);
};

/// Adds every per-layer metric (trace 1) from the traced phase: span self
/// times, counter deltas between `before` and `after`, and the statement
/// counters. `traced` supplies the statement count the per-statement
/// figures are normalized by.
void AddPerLayer(const Tracer& tracer, const EngineSnapshot& before,
                 const EngineSnapshot& after, const StatementCounters& counters,
                 const PhaseStats& traced, Report* report);

/// Figures a workload reports in its traced run next to the per-layer
/// metrics: end-to-end figures that apply to one workload only (0 where
/// they do not apply) and the tracing overhead. `untraced` and `traced` are
/// the run's two timed phases.
struct WorkloadFigures {
  double modeled_io_s = 0;             ///< per pass (fig2_cold)
  double rowcol_over_colopt = 0;       ///< fig2_cold
  double modeled_io_pass_spread = 0;   ///< (max - min) / median over passes
  double modeled_io_stmt_spread_ms = 0;  ///< worst per-statement max - min
};
void AddWorkloadFigures(const WorkloadFigures& figures,
                        const PhaseStats& untraced, const PhaseStats& traced,
                        Report* report);

// ---- workloads ------------------------------------------------------------

/// Each returns false on a set-up error (the run then prints no result).
/// `tracer` records the set-up and traced-phase spans of a traced run.
bool RunFig2Cold(const RunOptions& options, Tracer* tracer, Report* report);
bool RunScanWarm(const RunOptions& options, Tracer* tracer, Report* report);
bool RunOltpWal(const RunOptions& options, Tracer* tracer, Report* report);

}  // namespace perfbench
