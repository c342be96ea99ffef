#include "src/workers/token_context.h"

#include "src/common/check.h"

namespace hybridflow {

std::vector<int64_t> ContextWindow(const std::vector<int64_t>& prompt,
                                   const std::vector<int64_t>& response, size_t emitted,
                                   int64_t window) {
  HF_CHECK_LE(emitted, response.size());
  std::vector<int64_t> context(static_cast<size_t>(window), 0);
  // Fill from the end: the most recent `window` tokens of prompt+response.
  int64_t pos = window - 1;
  for (size_t k = emitted; k-- > 0 && pos >= 0;) {
    context[static_cast<size_t>(pos--)] = response[k];
  }
  for (size_t k = prompt.size(); k-- > 0 && pos >= 0;) {
    context[static_cast<size_t>(pos--)] = prompt[k];
  }
  return context;
}

std::vector<std::vector<int64_t>> AllResponseContextsRagged(
    const std::vector<std::vector<int64_t>>& prompts,
    const std::vector<std::vector<int64_t>>& responses, int64_t window,
    std::vector<int64_t>* lengths) {
  HF_CHECK_EQ(prompts.size(), responses.size());
  std::vector<std::vector<int64_t>> contexts;
  if (lengths != nullptr) {
    lengths->clear();
  }
  for (size_t i = 0; i < prompts.size(); ++i) {
    for (size_t k = 0; k < responses[i].size(); ++k) {
      contexts.push_back(ContextWindow(prompts[i], responses[i], k, window));
    }
    if (lengths != nullptr) {
      lengths->push_back(static_cast<int64_t>(responses[i].size()));
    }
  }
  return contexts;
}

std::vector<float> FlattenColumn(const std::vector<std::vector<float>>& column) {
  std::vector<float> flat;
  for (const std::vector<float>& row : column) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

std::vector<std::vector<float>> UnflattenRagged(const std::vector<float>& flat,
                                                const std::vector<int64_t>& lengths) {
  std::vector<std::vector<float>> column;
  column.reserve(lengths.size());
  size_t offset = 0;
  for (int64_t length : lengths) {
    HF_CHECK_LE(offset + static_cast<size_t>(length), flat.size());
    column.emplace_back(flat.begin() + static_cast<int64_t>(offset),
                        flat.begin() + static_cast<int64_t>(offset) + length);
    offset += static_cast<size_t>(length);
  }
  HF_CHECK_EQ(offset, flat.size());
  return column;
}

}  // namespace hybridflow
