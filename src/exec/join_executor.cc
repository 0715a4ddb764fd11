#include "exec/join_executor.h"

namespace elephant {

InljBounds InljBounds::Clone() const {
  InljBounds out;
  for (const ExprPtr& e : eq_exprs) out.eq_exprs.push_back(e->Clone());
  out.lo = lo ? lo->Clone() : nullptr;
  out.lo_inclusive = lo_inclusive;
  out.hi = hi ? hi->Clone() : nullptr;
  out.hi_inclusive = hi_inclusive;
  return out;
}

IndexNestedLoopJoinExecutor::IndexNestedLoopJoinExecutor(
    ExecContext* ctx, ExecutorPtr outer, const Table* inner_table,
    const SecondaryIndex* inner_index, InljBounds bounds, ExprPtr residual)
    : ctx_(ctx),
      outer_(std::move(outer)),
      inner_table_(inner_table),
      inner_index_(inner_index),
      bounds_(std::move(bounds)),
      residual_(std::move(residual)) {
  const Schema& inner_schema =
      inner_index_ != nullptr ? inner_index_->out_schema : inner_table_->schema();
  schema_ = Schema::Concat(outer_->OutputSchema(), inner_schema);
}

Status IndexNestedLoopJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(outer_->Init());
  outer_valid_ = false;
  inner_scan_.reset();
  return Status::OK();
}

Status IndexNestedLoopJoinExecutor::OpenInner() {
  std::vector<Value> eq_values;
  eq_values.reserve(bounds_.eq_exprs.size());
  for (const ExprPtr& e : bounds_.eq_exprs) {
    ELE_ASSIGN_OR_RETURN(Value v, e->Eval(outer_row_));
    eq_values.push_back(std::move(v));
  }
  std::optional<Value> lo, hi;
  if (bounds_.lo != nullptr) {
    ELE_ASSIGN_OR_RETURN(Value v, bounds_.lo->Eval(outer_row_));
    lo = std::move(v);
  }
  if (bounds_.hi != nullptr) {
    ELE_ASSIGN_OR_RETURN(Value v, bounds_.hi->Eval(outer_row_));
    hi = std::move(v);
  }
  KeyRange range = MakeKeyRange(eq_values, lo, bounds_.lo_inclusive, hi,
                                bounds_.hi_inclusive);
  if (inner_index_ != nullptr) {
    inner_scan_ = std::make_unique<SecondaryIndexScanExecutor>(
        ctx_, inner_table_, inner_index_, std::move(range));
  } else {
    inner_scan_ = std::make_unique<ClusteredScanExecutor>(ctx_, inner_table_,
                                                          std::move(range));
  }
  ctx_->counters().index_seeks++;
  return inner_scan_->Init();
}

Result<bool> IndexNestedLoopJoinExecutor::Next(Row* out) {
  while (true) {
    if (!outer_valid_) {
      ELE_ASSIGN_OR_RETURN(bool has, outer_->Next(&outer_row_));
      if (!has) return false;
      outer_valid_ = true;
      ELE_RETURN_NOT_OK(OpenInner());
    }
    Row inner_row;
    ELE_ASSIGN_OR_RETURN(bool has_inner, inner_scan_->Next(&inner_row));
    if (!has_inner) {
      outer_valid_ = false;
      continue;
    }
    out->clear();
    out->reserve(outer_row_.size() + inner_row.size());
    out->insert(out->end(), outer_row_.begin(), outer_row_.end());
    out->insert(out->end(), inner_row.begin(), inner_row.end());
    if (residual_ != nullptr) {
      ELE_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, *out));
      if (!pass) continue;
    }
    return true;
  }
}

void JoinHashTable::Reset(size_t num_cols) {
  cols_.assign(num_cols, {});
  next_.clear();
  chains_.clear();
}

void JoinHashTable::Link(std::string key, uint32_t row) {
  next_.push_back(kEnd);
  auto [it, fresh] = chains_.try_emplace(std::move(key), Chain{row, row});
  if (!fresh) {
    next_[it->second.last] = row;
    it->second.last = row;
  }
}

void JoinHashTable::Insert(std::string key, Row* values) {
  const auto row = static_cast<uint32_t>(next_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].push_back(std::move((*values)[c]));
  }
  Link(std::move(key), row);
}

void JoinHashTable::Insert(std::string key, Batch* batch, uint32_t pos) {
  const auto row = static_cast<uint32_t>(next_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].push_back(std::move(batch->col(c)[pos]));
  }
  Link(std::move(key), row);
}

uint32_t JoinHashTable::Find(const std::string& key) const {
  auto it = chains_.find(key);
  return it == chains_.end() ? kEnd : it->second.first;
}

HashJoinExecutor::HashJoinExecutor(ExecContext* ctx, ExecutorPtr outer,
                                   ExecutorPtr inner, std::vector<ExprPtr> outer_keys,
                                   std::vector<ExprPtr> inner_keys, ExprPtr residual,
                                   JoinBuildSide build)
    : ctx_(ctx),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_keys_(std::move(outer_keys)),
      inner_keys_(std::move(inner_keys)),
      residual_(std::move(residual)),
      build_(build) {
  schema_ = Schema::Concat(outer_->OutputSchema(), inner_->OutputSchema());
}

Result<bool> HashJoinExecutor::EncodeKeys(const std::vector<ExprPtr>& exprs,
                                          const Row& row, std::string* key) {
  key->clear();
  for (const ExprPtr& e : exprs) {
    ELE_ASSIGN_OR_RETURN(Value v, e->Eval(row));
    if (v.is_null()) return false;  // NULL keys never join
    keycodec::Encode(v, key);
  }
  return true;
}

Status HashJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(outer_->Init());
  ELE_RETURN_NOT_OK(inner_->Init());
  const bool build_outer = build_ == JoinBuildSide::kOuter;
  Executor* build = build_outer ? outer_.get() : inner_.get();
  const std::vector<ExprPtr>& build_keys = build_outer ? outer_keys_ : inner_keys_;
  table_.Reset(build->OutputSchema().NumColumns());
  match_ = JoinHashTable::kEnd;
  Row row;
  std::string key;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, build->Next(&row));
    if (!has) break;
    ELE_ASSIGN_OR_RETURN(bool joinable, EncodeKeys(build_keys, row, &key));
    if (joinable) table_.Insert(std::move(key), &row);
  }
  return Status::OK();
}

Result<bool> HashJoinExecutor::Next(Row* out) {
  const bool build_outer = build_ == JoinBuildSide::kOuter;
  Executor* probe = build_outer ? inner_.get() : outer_.get();
  const std::vector<ExprPtr>& probe_keys = build_outer ? inner_keys_ : outer_keys_;
  std::string key;
  while (true) {
    if (match_ == JoinHashTable::kEnd) {
      ELE_ASSIGN_OR_RETURN(bool has, probe->Next(&probe_row_));
      if (!has) return false;
      ELE_ASSIGN_OR_RETURN(bool joinable, EncodeKeys(probe_keys, probe_row_, &key));
      if (joinable) match_ = table_.Find(key);
      continue;
    }
    const uint32_t build_row = match_;
    match_ = table_.NextMatch(match_);
    out->clear();
    out->reserve(probe_row_.size() + table_.num_cols());
    auto append_build = [&] {
      for (size_t c = 0; c < table_.num_cols(); ++c) {
        out->push_back(table_.col(c)[build_row]);
      }
    };
    if (build_outer) append_build();
    out->insert(out->end(), probe_row_.begin(), probe_row_.end());
    if (!build_outer) append_build();
    if (residual_ != nullptr) {
      ELE_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, *out));
      if (!pass) continue;
    }
    return true;
  }
}

BandMergeJoinExecutor::BandMergeJoinExecutor(ExecContext* ctx, ExecutorPtr outer,
                                             ExecutorPtr inner, ExprPtr outer_lo,
                                             ExprPtr outer_hi, ExprPtr inner_point,
                                             ExprPtr residual)
    : ctx_(ctx),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_lo_(std::move(outer_lo)),
      outer_hi_(std::move(outer_hi)),
      inner_point_(std::move(inner_point)),
      residual_(std::move(residual)) {
  schema_ = Schema::Concat(outer_->OutputSchema(), inner_->OutputSchema());
}

Status BandMergeJoinExecutor::AdvanceOuter() {
  ELE_ASSIGN_OR_RETURN(bool has, outer_->Next(&outer_row_));
  outer_valid_ = has;
  if (has) {
    ELE_ASSIGN_OR_RETURN(lo_, outer_lo_->Eval(outer_row_));
    ELE_ASSIGN_OR_RETURN(hi_, outer_hi_->Eval(outer_row_));
  }
  return Status::OK();
}

Status BandMergeJoinExecutor::AdvanceInner() {
  ELE_ASSIGN_OR_RETURN(bool has, inner_->Next(&inner_row_));
  inner_valid_ = has;
  if (has) {
    ELE_ASSIGN_OR_RETURN(point_, inner_point_->Eval(inner_row_));
  }
  return Status::OK();
}

Status BandMergeJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(outer_->Init());
  ELE_RETURN_NOT_OK(inner_->Init());
  ELE_RETURN_NOT_OK(AdvanceOuter());
  ELE_RETURN_NOT_OK(AdvanceInner());
  return Status::OK();
}

Result<bool> BandMergeJoinExecutor::Next(Row* out) {
  while (outer_valid_ && inner_valid_) {
    if (point_.Compare(lo_) < 0) {
      ELE_RETURN_NOT_OK(AdvanceInner());
      continue;
    }
    if (point_.Compare(hi_) > 0) {
      ELE_RETURN_NOT_OK(AdvanceOuter());
      continue;
    }
    // Containment: emit, then advance the inner side (each inner point
    // belongs to at most one outer range — ranges never partially overlap).
    out->clear();
    out->reserve(outer_row_.size() + inner_row_.size());
    out->insert(out->end(), outer_row_.begin(), outer_row_.end());
    out->insert(out->end(), inner_row_.begin(), inner_row_.end());
    ELE_RETURN_NOT_OK(AdvanceInner());
    if (residual_ != nullptr) {
      ELE_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, *out));
      if (!pass) continue;
    }
    return true;
  }
  return false;
}

}  // namespace elephant
