#include "src/data/data_batch.h"

#include <algorithm>

#include "src/common/check.h"

namespace hybridflow {

void DataBatch::CheckRowCount(int64_t rows) {
  if (batch_size_ == 0 && floats_.empty() && tokens_.empty()) {
    batch_size_ = rows;
  } else {
    HF_CHECK_MSG(rows == batch_size_,
                 "column row count " << rows << " != batch size " << batch_size_);
  }
}

void DataBatch::SetFloat(const std::string& name, FloatColumn column) {
  CheckRowCount(static_cast<int64_t>(column.size()));
  floats_[name] = std::move(column);
}

void DataBatch::SetTokens(const std::string& name, TokenColumn column) {
  CheckRowCount(static_cast<int64_t>(column.size()));
  tokens_[name] = std::move(column);
}

const DataBatch::FloatColumn& DataBatch::Float(const std::string& name) const {
  auto it = floats_.find(name);
  HF_CHECK_MSG(it != floats_.end(), "missing float column: " << name);
  return it->second;
}

const DataBatch::TokenColumn& DataBatch::Tokens(const std::string& name) const {
  auto it = tokens_.find(name);
  HF_CHECK_MSG(it != tokens_.end(), "missing token column: " << name);
  return it->second;
}

std::vector<std::string> DataBatch::FloatNames() const {
  std::vector<std::string> names;
  names.reserve(floats_.size());
  for (const auto& [name, column] : floats_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> DataBatch::TokenNames() const {
  std::vector<std::string> names;
  names.reserve(tokens_.size());
  for (const auto& [name, column] : tokens_) {
    names.push_back(name);
  }
  return names;
}

DataBatch DataBatch::Slice(int64_t begin, int64_t end) const {
  HF_CHECK_GE(begin, 0);
  HF_CHECK_LE(begin, end);
  HF_CHECK_LE(end, batch_size_);
  DataBatch out;
  for (const auto& [name, column] : floats_) {
    out.SetFloat(name, FloatColumn(column.begin() + begin, column.begin() + end));
  }
  for (const auto& [name, column] : tokens_) {
    out.SetTokens(name, TokenColumn(column.begin() + begin, column.begin() + end));
  }
  if (out.batch_size_ == 0) {
    out.batch_size_ = end - begin;
  }
  return out;
}

std::vector<DataBatch> DataBatch::SplitChunks(int chunks) const {
  HF_CHECK_GT(chunks, 0);
  std::vector<DataBatch> out;
  out.reserve(static_cast<size_t>(chunks));
  const int64_t base = batch_size_ / chunks;
  const int64_t remainder = batch_size_ % chunks;
  int64_t begin = 0;
  for (int c = 0; c < chunks; ++c) {
    const int64_t rows = base + (c < remainder ? 1 : 0);
    out.push_back(Slice(begin, begin + rows));
    begin += rows;
  }
  HF_CHECK_EQ(begin, batch_size_);
  return out;
}

DataBatch DataBatch::ConcatBatches(const std::vector<DataBatch>& parts) {
  DataBatch out;
  // Column-less empty batches are the neutral element: a rank whose shard
  // was empty (more DP ranks than rows) contributes nothing.
  const auto has_columns = [](const DataBatch& part) {
    return !part.floats_.empty() || !part.tokens_.empty();
  };
  const auto first = std::find_if(parts.begin(), parts.end(), has_columns);
  if (first == parts.end()) {
    return out;
  }
  for (const std::string& name : first->FloatNames()) {
    FloatColumn column;
    for (const DataBatch& part : parts) {
      if (has_columns(part)) {
        const FloatColumn& src = part.Float(name);
        column.insert(column.end(), src.begin(), src.end());
      }
    }
    out.SetFloat(name, std::move(column));
  }
  for (const std::string& name : first->TokenNames()) {
    TokenColumn column;
    for (const DataBatch& part : parts) {
      if (has_columns(part)) {
        const TokenColumn& src = part.Tokens(name);
        column.insert(column.end(), src.begin(), src.end());
      }
    }
    out.SetTokens(name, std::move(column));
  }
  return out;
}

void DataBatch::MergeColumns(const DataBatch& other) {
  if (other.empty() && other.floats_.empty() && other.tokens_.empty()) {
    return;
  }
  for (const auto& [name, column] : other.floats_) {
    SetFloat(name, column);
  }
  for (const auto& [name, column] : other.tokens_) {
    SetTokens(name, column);
  }
}

double DataBatch::ApproxBytes() const {
  double bytes = 0.0;
  for (const auto& [name, column] : floats_) {
    for (const std::vector<float>& row : column) {
      bytes += static_cast<double>(row.size()) * sizeof(float);
    }
  }
  for (const auto& [name, column] : tokens_) {
    for (const std::vector<int64_t>& row : column) {
      bytes += static_cast<double>(row.size()) * sizeof(int64_t);
    }
  }
  return bytes;
}

}  // namespace hybridflow
