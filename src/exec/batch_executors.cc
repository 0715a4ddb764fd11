#include "exec/batch_executors.h"

namespace elephant {

namespace {

/// Group-key and aggregate-argument vectors for one input batch: the
/// vectorized front half of aggregation. The fold itself then walks live
/// rows in batch order — the same order the row engine sees them — through
/// the shared AggState accumulators.
struct AggInputVectors {
  std::vector<std::vector<Value>> group_cols;
  std::vector<std::vector<Value>> agg_cols;  ///< unused entry for COUNT(*)
};

Status EvalAggInputs(const Batch& in, const std::vector<uint32_t>& positions,
                     const std::vector<ExprPtr>& group_exprs,
                     const std::vector<AggSpec>& aggs, AggInputVectors* v) {
  v->group_cols.resize(group_exprs.size());
  for (size_t g = 0; g < group_exprs.size(); ++g) {
    ELE_RETURN_NOT_OK(
        group_exprs[g]->EvalBatch(in, positions, &v->group_cols[g]));
  }
  v->agg_cols.resize(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].fn == AggFunc::kCountStar) continue;
    ELE_RETURN_NOT_OK(aggs[a].arg->EvalBatch(in, positions, &v->agg_cols[a]));
  }
  return Status::OK();
}

std::string EncodeGroupKeyAt(const AggInputVectors& v, uint32_t pos,
                             Row* values_out) {
  std::string key;
  values_out->clear();
  for (const auto& col : v.group_cols) {
    keycodec::Encode(col[pos], &key);
    values_out->push_back(col[pos]);
  }
  return key;
}

Status AccumulateAt(const std::vector<AggSpec>& aggs, const AggInputVectors& v,
                    uint32_t pos, std::vector<AggState>* states) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].fn == AggFunc::kCountStar) {
      ELE_RETURN_NOT_OK((*states)[i].Accumulate(Value()));
    } else {
      ELE_RETURN_NOT_OK((*states)[i].Accumulate(v.agg_cols[i][pos]));
    }
  }
  return Status::OK();
}

/// Encodes the join key of one row from per-key value vectors (position
/// `pos` of each). Returns false when any key value is NULL: NULL keys
/// never join. With no key columns every row gets the empty key, so a
/// keyless join is a cross product.
bool EncodeJoinKeyAt(const std::vector<std::vector<Value>>& key_values,
                     uint32_t pos, std::string* key) {
  key->clear();
  for (const std::vector<Value>& values : key_values) {
    if (values[pos].is_null()) return false;
    keycodec::Encode(values[pos], key);
  }
  return true;
}

}  // namespace

// ---- Scans ----

Status BatchClusteredScanExecutor::Init() {
  ELE_ASSIGN_OR_RETURN(Table::RowIterator it,
                       table_->ScanRange(range_.lo, range_.hi, intent_));
  it_.emplace(std::move(it));
  return Status::OK();
}

Result<bool> BatchClusteredScanExecutor::NextBatch(Batch* out) {
  out->Reset(table_->schema().NumColumns());
  Row row;
  while (!out->full() && it_->Valid()) {
    ELE_RETURN_NOT_OK(it_->Current(&row));
    ELE_RETURN_NOT_OK(it_->Next());
    ctx_->counters().rows_scanned++;
    out->AppendRowMove(std::move(row));
  }
  return out->num_rows() > 0;
}

Status BatchSecondaryIndexScanExecutor::Init() {
  BPlusTree::Iterator it;
  if (range_.lo.empty()) {
    ELE_ASSIGN_OR_RETURN(it, index_->tree->SeekToFirst(intent_));
  } else {
    ELE_ASSIGN_OR_RETURN(it, index_->tree->Seek(range_.lo, intent_));
  }
  it_.emplace(std::move(it));
  return Status::OK();
}

Result<bool> BatchSecondaryIndexScanExecutor::NextBatch(Batch* out) {
  out->Reset(index_->out_schema.NumColumns());
  Row row;
  while (!out->full() && it_->Valid()) {
    const std::string_view key = it_->key();
    if (!range_.hi.empty() && key >= std::string_view(range_.hi)) break;
    ELE_RETURN_NOT_OK(
        DecodeSecondaryIndexRow(*table_, *index_, key, it_->value(), &row));
    ELE_RETURN_NOT_OK(it_->Next());
    ctx_->counters().rows_scanned++;
    out->AppendRowMove(std::move(row));
  }
  return out->num_rows() > 0;
}

// ---- Filter / projection ----

Result<bool> BatchFilterExecutor::NextBatch(Batch* out) {
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
    if (!has) return false;
    if (out->empty()) continue;
    ELE_RETURN_NOT_OK(ApplyFilterToBatch(*predicate_, out));
    if (!out->empty()) return true;
  }
}

BatchProjectExecutor::BatchProjectExecutor(BatchExecutorPtr child,
                                           std::vector<ExprPtr> exprs,
                                           std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  std::vector<Column> cols;
  for (size_t i = 0; i < exprs_.size(); i++) {
    std::string name = i < names.size() && !names[i].empty()
                           ? names[i]
                           : exprs_[i]->ToString();
    cols.emplace_back(std::move(name), exprs_[i]->output_type(),
                      exprs_[i]->output_length());
  }
  schema_ = Schema(std::move(cols));
}

Result<bool> BatchProjectExecutor::NextBatch(Batch* out) {
  Batch in;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in));
    if (!has) return false;
    if (!in.empty()) break;
  }
  const std::vector<uint32_t> positions = in.ActiveIndices();
  out->Reset(exprs_.size());
  std::vector<Value> result;
  for (size_t e = 0; e < exprs_.size(); ++e) {
    ELE_RETURN_NOT_OK(exprs_[e]->EvalBatch(in, positions, &result));
    auto& col = out->col(e);
    col.reserve(positions.size());
    for (uint32_t pos : positions) col.push_back(std::move(result[pos]));
  }
  out->SetRowCount(static_cast<uint32_t>(positions.size()));
  return true;
}

// ---- Hash aggregation ----

BatchHashAggregateExecutor::BatchHashAggregateExecutor(
    ExecContext* ctx, BatchExecutorPtr child, std::vector<ExprPtr> group_exprs,
    std::vector<AggSpec> aggs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  schema_ = MakeAggOutputSchema(child_->OutputSchema(), group_exprs_, aggs_);
}

Status BatchHashAggregateExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  groups_.clear();
  Batch in;
  AggInputVectors v;
  Row group_values;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in));
    if (!has) break;
    const std::vector<uint32_t> positions = in.ActiveIndices();
    ELE_RETURN_NOT_OK(EvalAggInputs(in, positions, group_exprs_, aggs_, &v));
    for (uint32_t pos : positions) {
      std::string key = EncodeGroupKeyAt(v, pos, &group_values);
      auto it = groups_.find(key);
      if (it == groups_.end()) {
        it = groups_
                 .emplace(std::move(key),
                          Group{group_values, FreshAggStates(aggs_)})
                 .first;
      }
      ELE_RETURN_NOT_OK(AccumulateAt(aggs_, v, pos, &it->second.states));
    }
  }
  // Scalar aggregation (no GROUP BY) over empty input yields one row.
  if (group_exprs_.empty() && groups_.empty()) {
    groups_.emplace(std::string(), Group{Row{}, FreshAggStates(aggs_)});
  }
  emit_it_ = groups_.begin();
  inited_ = true;
  return Status::OK();
}

Result<bool> BatchHashAggregateExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  if (!inited_) return false;
  Row row;
  while (!out->full() && emit_it_ != groups_.end()) {
    row.clear();
    for (const Value& gv : emit_it_->second.group_values) row.push_back(gv);
    for (const AggState& s : emit_it_->second.states) row.push_back(s.Finalize());
    out->AppendRowMove(std::move(row));
    ++emit_it_;
  }
  return out->num_rows() > 0;
}

// ---- Stream aggregation ----

BatchStreamAggregateExecutor::BatchStreamAggregateExecutor(
    ExecContext* ctx, BatchExecutorPtr child, std::vector<ExprPtr> group_exprs,
    std::vector<AggSpec> aggs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  schema_ = MakeAggOutputSchema(child_->OutputSchema(), group_exprs_, aggs_);
}

Status BatchStreamAggregateExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  has_group_ = false;
  child_done_ = false;
  final_emitted_ = false;
  pending_.clear();
  return Status::OK();
}

Row BatchStreamAggregateExecutor::FinishCurrent() {
  Row out;
  out.reserve(current_values_.size() + states_.size());
  for (const Value& v : current_values_) out.push_back(v);
  for (const AggState& s : states_) out.push_back(s.Finalize());
  has_group_ = false;
  return out;
}

Status BatchStreamAggregateExecutor::ConsumeBatch(const Batch& in) {
  const std::vector<uint32_t> positions = in.ActiveIndices();
  AggInputVectors v;
  Row group_values;
  ELE_RETURN_NOT_OK(EvalAggInputs(in, positions, group_exprs_, aggs_, &v));
  for (uint32_t pos : positions) {
    std::string key = EncodeGroupKeyAt(v, pos, &group_values);
    if (has_group_ && key != current_key_) {
      // Group boundary (possibly mid-batch, possibly the carry-over from a
      // previous batch): finish the old group before starting the new one.
      pending_.push_back(FinishCurrent());
    }
    if (!has_group_) {
      has_group_ = true;
      current_key_ = std::move(key);
      current_values_ = std::move(group_values);
      states_ = FreshAggStates(aggs_);
    }
    ELE_RETURN_NOT_OK(AccumulateAt(aggs_, v, pos, &states_));
  }
  return Status::OK();
}

Result<bool> BatchStreamAggregateExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  while (!out->full()) {
    if (!pending_.empty()) {
      out->AppendRowMove(std::move(pending_.front()));
      pending_.pop_front();
      continue;
    }
    if (child_done_) {
      if (final_emitted_) break;
      final_emitted_ = true;
      if (has_group_) {
        pending_.push_back(FinishCurrent());
      } else if (group_exprs_.empty()) {
        // Scalar aggregate over empty input: one row of empty-group states.
        states_ = FreshAggStates(aggs_);
        current_values_.clear();
        has_group_ = true;
        pending_.push_back(FinishCurrent());
      }
      continue;
    }
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_));
    if (!has) {
      child_done_ = true;
      continue;
    }
    ELE_RETURN_NOT_OK(ConsumeBatch(in_));
  }
  return out->num_rows() > 0;
}

// ---- Partial / final aggregation (parallel halves) ----

BatchPartialAggregateExecutor::BatchPartialAggregateExecutor(
    ExecContext* ctx, BatchExecutorPtr child, std::vector<ExprPtr> group_exprs,
    std::vector<AggSpec> aggs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  schema_ = MakePartialAggSchema(group_exprs_, aggs_);
}

Status BatchPartialAggregateExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  groups_.clear();
  Batch in;
  AggInputVectors v;
  Row group_values;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in));
    if (!has) break;
    const std::vector<uint32_t> positions = in.ActiveIndices();
    ELE_RETURN_NOT_OK(EvalAggInputs(in, positions, group_exprs_, aggs_, &v));
    for (uint32_t pos : positions) {
      std::string key = EncodeGroupKeyAt(v, pos, &group_values);
      auto it = groups_.find(key);
      if (it == groups_.end()) {
        it = groups_
                 .emplace(std::move(key),
                          Group{group_values, FreshAggStates(aggs_)})
                 .first;
      }
      ELE_RETURN_NOT_OK(AccumulateAt(aggs_, v, pos, &it->second.states));
    }
  }
  // A scalar partial aggregate always contributes one transfer row, even
  // over an empty morsel, so the final merge sees COUNT() = 0 etc.
  if (group_exprs_.empty() && groups_.empty()) {
    groups_.emplace(std::string(), Group{Row{}, FreshAggStates(aggs_)});
  }
  emit_it_ = groups_.begin();
  inited_ = true;
  return Status::OK();
}

Result<bool> BatchPartialAggregateExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  if (!inited_) return false;
  Row row;
  while (!out->full() && emit_it_ != groups_.end()) {
    row.clear();
    for (const Value& gv : emit_it_->second.group_values) row.push_back(gv);
    for (const AggState& s : emit_it_->second.states) s.AppendPartial(&row);
    out->AppendRowMove(std::move(row));
    ++emit_it_;
  }
  return out->num_rows() > 0;
}

BatchFinalAggregateExecutor::BatchFinalAggregateExecutor(
    ExecContext* ctx, BatchExecutorPtr child, size_t num_groups,
    std::vector<AggSpec> aggs, Schema output_schema)
    : ctx_(ctx),
      child_(std::move(child)),
      num_groups_(num_groups),
      aggs_(std::move(aggs)),
      schema_(std::move(output_schema)) {}

Status BatchFinalAggregateExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  groups_.clear();
  Batch in;
  Row row;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in));
    if (!has) break;
    const uint32_t n = in.ActiveCount();
    for (uint32_t i = 0; i < n; ++i) {
      in.GatherRow(in.ActiveIndex(i), &row);
      std::string key;
      for (size_t g = 0; g < num_groups_; g++) keycodec::Encode(row[g], &key);
      auto it = groups_.find(key);
      if (it == groups_.end()) {
        Row group_values(row.begin(), row.begin() + static_cast<long>(num_groups_));
        it = groups_
                 .emplace(std::move(key),
                          Group{std::move(group_values), FreshAggStates(aggs_)})
                 .first;
      }
      size_t pos = num_groups_;
      for (size_t a = 0; a < aggs_.size(); a++) {
        ELE_RETURN_NOT_OK(it->second.states[a].MergePartial(row, pos));
        pos += AggState::PartialWidth(aggs_[a].fn);
      }
    }
  }
  // Scalar aggregation over zero partial rows (e.g. an empty key range
  // produced no morsels) still yields one output row, like the serial plan.
  if (num_groups_ == 0 && groups_.empty()) {
    groups_.emplace(std::string(), Group{Row{}, FreshAggStates(aggs_)});
  }
  emit_it_ = groups_.begin();
  inited_ = true;
  return Status::OK();
}

Result<bool> BatchFinalAggregateExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  if (!inited_) return false;
  Row row;
  while (!out->full() && emit_it_ != groups_.end()) {
    row.clear();
    row.reserve(num_groups_ + aggs_.size());
    for (const Value& gv : emit_it_->second.group_values) row.push_back(gv);
    for (const AggState& s : emit_it_->second.states) row.push_back(s.Finalize());
    out->AppendRowMove(std::move(row));
    ++emit_it_;
  }
  return out->num_rows() > 0;
}

// ---- Hash join ----

BatchHashJoinExecutor::BatchHashJoinExecutor(BatchExecutorPtr outer,
                                             BatchExecutorPtr inner,
                                             std::vector<ExprPtr> outer_keys,
                                             std::vector<ExprPtr> inner_keys,
                                             ExprPtr residual, JoinBuildSide build)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_keys_(std::move(outer_keys)),
      inner_keys_(std::move(inner_keys)),
      residual_(std::move(residual)),
      build_(build) {
  schema_ = Schema::Concat(outer_->OutputSchema(), inner_->OutputSchema());
}

Status BatchHashJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(outer_->Init());
  ELE_RETURN_NOT_OK(inner_->Init());
  BatchExecutor* build = build_outer() ? outer_.get() : inner_.get();
  const std::vector<ExprPtr>& keys = build_outer() ? outer_keys_ : inner_keys_;
  table_.Reset(build->OutputSchema().NumColumns());
  key_values_.resize(keys.size());
  Batch in;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, build->NextBatch(&in));
    if (!has) break;
    const std::vector<uint32_t> positions = in.ActiveIndices();
    for (size_t k = 0; k < keys.size(); ++k) {
      ELE_RETURN_NOT_OK(keys[k]->EvalBatch(in, positions, &key_values_[k]));
    }
    for (uint32_t pos : positions) {
      if (EncodeJoinKeyAt(key_values_, pos, &key_)) {
        table_.Insert(std::move(key_), &in, pos);
      }
    }
  }
  probe_pos_.clear();
  probe_idx_ = 0;
  match_ = JoinHashTable::kEnd;
  return Status::OK();
}

Result<bool> BatchHashJoinExecutor::NextProbeBatch() {
  BatchExecutor* probe = build_outer() ? inner_.get() : outer_.get();
  const std::vector<ExprPtr>& keys = build_outer() ? inner_keys_ : outer_keys_;
  do {
    ELE_ASSIGN_OR_RETURN(bool has, probe->NextBatch(&probe_));
    if (!has) return false;
  } while (probe_.empty());
  probe_pos_ = probe_.ActiveIndices();
  key_values_.resize(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    ELE_RETURN_NOT_OK(keys[k]->EvalBatch(probe_, probe_pos_, &key_values_[k]));
  }
  probe_head_.resize(probe_pos_.size());
  for (size_t i = 0; i < probe_pos_.size(); ++i) {
    probe_head_[i] = EncodeJoinKeyAt(key_values_, probe_pos_[i], &key_)
                         ? table_.Find(key_)
                         : JoinHashTable::kEnd;
  }
  probe_idx_ = 0;
  match_ = probe_head_[0];
  return true;
}

Result<bool> BatchHashJoinExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  while (true) {
    // Collect up to one batch of (probe row, build row) matches. Pairs
    // point into probe_, so they are emitted before the next probe batch
    // is pulled.
    out_probe_.clear();
    out_build_.clear();
    out_last_.clear();
    while (out_probe_.size() < kBatchCapacity) {
      if (probe_idx_ == probe_pos_.size()) {
        if (!out_probe_.empty()) break;
        ELE_ASSIGN_OR_RETURN(bool has, NextProbeBatch());
        if (!has) return false;
        continue;
      }
      if (match_ == JoinHashTable::kEnd) {
        if (++probe_idx_ < probe_pos_.size()) match_ = probe_head_[probe_idx_];
        continue;
      }
      out_probe_.push_back(probe_pos_[probe_idx_]);
      out_build_.push_back(match_);
      match_ = table_.NextMatch(match_);
      out_last_.push_back(match_ == JoinHashTable::kEnd);
    }
    // Gather column by column into the outer ++ inner layout. A probe
    // row's values move out at its last match (its chain has ended); build
    // rows may match again and are copied.
    const size_t probe_off = build_outer() ? table_.num_cols() : 0;
    const size_t build_off = build_outer() ? 0 : probe_.num_cols();
    for (size_t c = 0; c < probe_.num_cols(); ++c) {
      std::vector<Value>& src = probe_.col(c);
      std::vector<Value>& dst = out->col(probe_off + c);
      dst.reserve(out_probe_.size());
      for (size_t i = 0; i < out_probe_.size(); ++i) {
        Value& v = src[out_probe_[i]];
        dst.push_back(out_last_[i] ? std::move(v) : v);
      }
    }
    for (size_t c = 0; c < table_.num_cols(); ++c) {
      const std::vector<Value>& src = table_.col(c);
      std::vector<Value>& dst = out->col(build_off + c);
      dst.reserve(out_build_.size());
      for (uint32_t r : out_build_) dst.push_back(src[r]);
    }
    out->SetRowCount(static_cast<uint32_t>(out_probe_.size()));
    if (residual_ == nullptr) return true;
    ELE_RETURN_NOT_OK(ApplyFilterToBatch(*residual_, out));
    if (!out->empty()) return true;
    out->Reset(schema_.NumColumns());
  }
}

// ---- Adapters ----

Result<bool> RowFromBatchAdapter::Next(Row* out) {
  while (idx_ >= batch_.ActiveCount()) {
    if (done_) return false;
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch_));
    if (!has) {
      done_ = true;
      return false;
    }
    idx_ = 0;
  }
  batch_.GatherRow(batch_.ActiveIndex(idx_++), out);
  return true;
}

Result<bool> BatchFromRowAdapter::NextBatch(Batch* out) {
  out->Reset(child_->OutputSchema().NumColumns());
  if (done_) return false;
  Row row;
  while (!out->full()) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) {
      done_ = true;
      break;
    }
    out->AppendRowMove(std::move(row));
  }
  return out->num_rows() > 0;
}

}  // namespace elephant
