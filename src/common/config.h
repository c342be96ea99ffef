// Minimal key=value configuration parser for the experiment CLI.
//
// Format: one `key = value` per line; `#` starts a comment; whitespace is
// trimmed; later keys override earlier ones. Keys are flat, dotted by
// convention (e.g. `cluster.gpus = 64`).
#ifndef SRC_COMMON_CONFIG_H_
#define SRC_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace hybridflow {

class ConfigMap {
 public:
  // Parses text; returns false (and fills *error) on malformed lines.
  bool ParseString(const std::string& text, std::string* error = nullptr);
  bool ParseFile(const std::string& path, std::string* error = nullptr);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  // Getters return `fallback` when the key is absent; they abort on a
  // present-but-unparsable value (a config error the user must fix). Each
  // getter marks its key as read.
  std::string GetString(const std::string& key, const std::string& fallback = "") const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  void Set(const std::string& key, const std::string& value) { values_[key] = value; }
  const std::map<std::string, std::string>& values() const { return values_; }
  // Keys that are set but were never passed to a getter, in key order: a
  // misspelt or retired key, once every read is done.
  std::vector<std::string> UnreadKeys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  // Keys passed to a getter.
};

// Trims ASCII whitespace from both ends.
std::string TrimWhitespace(const std::string& text);

}  // namespace hybridflow

#endif  // SRC_COMMON_CONFIG_H_
