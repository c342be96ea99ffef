// Context-window utilities shared by the worker model classes.
#ifndef SRC_WORKERS_TOKEN_CONTEXT_H_
#define SRC_WORKERS_TOKEN_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hybridflow {

// The window of the last `window` tokens of (prompt + response[0..emitted)),
// left-padded with 0.
std::vector<int64_t> ContextWindow(const std::vector<int64_t>& prompt,
                                   const std::vector<int64_t>& response, size_t emitted,
                                   int64_t window);

// Contexts for every response position of every row, concatenated
// row-major: the window preceding each response token. Rows may have
// different response lengths (EOS-terminated generation); *lengths
// receives each row's response length.
std::vector<std::vector<int64_t>> AllResponseContextsRagged(
    const std::vector<std::vector<int64_t>>& prompts,
    const std::vector<std::vector<int64_t>>& responses, int64_t window,
    std::vector<int64_t>* lengths);

// Flattens a (possibly ragged) [B][*] float column into one vector.
std::vector<float> FlattenColumn(const std::vector<std::vector<float>>& column);

// Ragged inverse of FlattenColumn: splits `flat` into rows of the given
// lengths (sum of lengths must equal flat.size()).
std::vector<std::vector<float>> UnflattenRagged(const std::vector<float>& flat,
                                                const std::vector<int64_t>& lengths);

}  // namespace hybridflow

#endif  // SRC_WORKERS_TOKEN_CONTEXT_H_
