#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/expression.h"
#include "exec/scan_executor.h"

namespace elephant {

/// Correlated bounds on the inner index of an index nested-loop join,
/// evaluated against each *outer* row: `eq_exprs` pin a prefix of the inner
/// index key by equality; then an optional [lo, hi] range (with inclusivity
/// flags) constrains the next key column.
///
/// The paper's band join `T1.f BETWEEN T0.f AND T0.f + T0.c - 1` maps to
/// eq_exprs = {}, lo = T0.f (inclusive), hi = T0.f + T0.c - 1 (inclusive)
/// with the inner side being the c-table clustered on f.
struct InljBounds {
  std::vector<ExprPtr> eq_exprs;
  ExprPtr lo;
  bool lo_inclusive = true;
  ExprPtr hi;
  bool hi_inclusive = true;

  InljBounds Clone() const;
};

/// Index nested-loop join: for each outer row, seeks the inner table's
/// clustered index (or a secondary covering index) with bounds computed from
/// the outer row, emitting outer ++ inner rows that pass the residual
/// predicate. Every inner probe increments ExecCounters::index_seeks — the
/// "context switches" the paper's Figure 4(b) optimization minimizes.
/// batch: opt-out — row operator for now; the planner drops its outer input
/// to rows (EnsureRows). A batch twin needs a forward-seeking leaf cursor.
class IndexNestedLoopJoinExecutor final : public Executor {
 public:
  /// Inner = clustered index of `inner_table` when `inner_index` is null,
  /// else the given secondary covering index.
  IndexNestedLoopJoinExecutor(ExecContext* ctx, ExecutorPtr outer,
                              const Table* inner_table,
                              const SecondaryIndex* inner_index,
                              InljBounds bounds, ExprPtr residual);

  Status Init() override;
  Result<bool> Next(Row* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Opens the inner scan for the current outer row.
  Status OpenInner();

  ExecContext* ctx_;
  ExecutorPtr outer_;
  const Table* inner_table_;
  const SecondaryIndex* inner_index_;
  InljBounds bounds_;
  ExprPtr residual_;
  Schema schema_;

  Row outer_row_;
  bool outer_valid_ = false;
  ExecutorPtr inner_scan_;
};

/// The input of an equi-join that a hash join builds its table on. The
/// planner builds on the input with the smaller estimate, like the paper's
/// commercial row store; the other input streams through as the probe side.
/// Output columns are outer ++ inner whichever side is built.
enum class JoinBuildSide { kInner, kOuter };

/// Hash table over the build input of a hash join, shared by
/// HashJoinExecutor and BatchHashJoinExecutor so both engines emit matches
/// in the same order. Build rows are stored column-wise (no per-row `Row`
/// objects); the rows of one key are chained in build-input order.
class JoinHashTable {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// Drops all rows and re-shapes to `num_cols` columns.
  void Reset(size_t num_cols);

  /// Appends one build row under `key`; `values` are moved from.
  void Insert(std::string key, Row* values);
  /// Appends physical row `pos` of `batch` under `key` (values moved from).
  void Insert(std::string key, Batch* batch, uint32_t pos);

  /// First build row stored under `key`, or kEnd.
  uint32_t Find(const std::string& key) const;
  /// The build row after `row` under the same key, or kEnd.
  uint32_t NextMatch(uint32_t row) const { return next_[row]; }

  size_t num_cols() const { return cols_.size(); }
  const std::vector<Value>& col(size_t c) const { return cols_[c]; }

 private:
  /// Links the row just appended (index `row`) into `key`'s chain.
  void Link(std::string key, uint32_t row);

  struct Chain {
    uint32_t first;
    uint32_t last;
  };
  std::vector<std::vector<Value>> cols_;
  std::vector<uint32_t> next_;
  std::unordered_map<std::string, Chain> chains_;
};

/// Hash join on equality keys: builds a JoinHashTable on one input (see
/// JoinBuildSide), then streams the other through it. Output = outer ++
/// inner; rows come in probe-stream order, and a probe row's matches in
/// build-input order.
/// batch: twin BatchHashJoinExecutor (batch_executors.h).
class HashJoinExecutor final : public Executor {
 public:
  HashJoinExecutor(ExecContext* ctx, ExecutorPtr outer, ExecutorPtr inner,
                   std::vector<ExprPtr> outer_keys, std::vector<ExprPtr> inner_keys,
                   ExprPtr residual, JoinBuildSide build = JoinBuildSide::kInner);

  Status Init() override;
  Result<bool> Next(Row* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Encodes `row`'s key; false when a key value is NULL.
  Result<bool> EncodeKeys(const std::vector<ExprPtr>& exprs, const Row& row,
                          std::string* key);

  ExecContext* ctx_;
  ExecutorPtr outer_, inner_;
  std::vector<ExprPtr> outer_keys_, inner_keys_;
  ExprPtr residual_;
  JoinBuildSide build_;
  Schema schema_;

  JoinHashTable table_;
  Row probe_row_;
  uint32_t match_ = JoinHashTable::kEnd;  ///< next build row for probe_row_
};

/// Merge-style band join over two sorted inputs: the outer rows carry ranges
/// [lo(outer), hi(outer)] (ascending, non-partially-overlapping — the
/// c-table property of §2.2.1); the inner rows carry points point(inner) in
/// ascending order. Emits outer ++ inner for every containment. Both inputs
/// are consumed exactly once — this is the "merge join" plan the paper says
/// the optimizer wrongly prefers over INLJ when it ignores data properties
/// (§3 "Query hints"): it must read the *entire* inner input even when the
/// outer ranges are highly selective.
/// batch: opt-out — row operator for now, like IndexNestedLoopJoinExecutor;
/// the planner drops both inputs to rows.
class BandMergeJoinExecutor final : public Executor {
 public:
  BandMergeJoinExecutor(ExecContext* ctx, ExecutorPtr outer, ExecutorPtr inner,
                        ExprPtr outer_lo, ExprPtr outer_hi, ExprPtr inner_point,
                        ExprPtr residual);

  Status Init() override;
  Result<bool> Next(Row* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  Status AdvanceOuter();
  Status AdvanceInner();

  ExecContext* ctx_;
  ExecutorPtr outer_, inner_;
  ExprPtr outer_lo_, outer_hi_, inner_point_;
  ExprPtr residual_;
  Schema schema_;

  Row outer_row_, inner_row_;
  bool outer_valid_ = false, inner_valid_ = false;
  Value lo_, hi_, point_;
};

}  // namespace elephant
