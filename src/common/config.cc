#include "src/common/config.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/check.h"

namespace hybridflow {

std::string TrimWhitespace(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool ConfigMap::ParseString(const std::string& text, std::string* error) {
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    line_number += 1;
    const size_t comment = line.find('#');
    if (comment != std::string::npos) {
      line = line.substr(0, comment);
    }
    line = TrimWhitespace(line);
    if (line.empty()) {
      continue;
    }
    const size_t equals = line.find('=');
    if (equals == std::string::npos) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": expected 'key = value'";
      }
      return false;
    }
    const std::string key = TrimWhitespace(line.substr(0, equals));
    const std::string value = TrimWhitespace(line.substr(equals + 1));
    if (key.empty()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": empty key";
      }
      return false;
    }
    values_[key] = value;
  }
  return true;
}

bool ConfigMap::ParseFile(const std::string& path, std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return ParseString(contents.str(), error);
}

std::string ConfigMap::GetString(const std::string& key, const std::string& fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t ConfigMap::GetInt(const std::string& key, int64_t fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  HF_CHECK_MSG(end != nullptr && *end == '\0' && !it->second.empty(),
               "config key " << key << " is not an integer: '" << it->second << "'");
  return static_cast<int64_t>(value);
}

double ConfigMap::GetDouble(const std::string& key, double fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  HF_CHECK_MSG(end != nullptr && *end == '\0' && !it->second.empty(),
               "config key " << key << " is not a number: '" << it->second << "'");
  return value;
}

bool ConfigMap::GetBool(const std::string& key, bool fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  HF_CHECK_MSG(false, "config key " << key << " is not a boolean: '" << value << "'");
  return fallback;
}

std::vector<std::string> ConfigMap::UnreadKeys() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) {
      unread.push_back(key);
    }
  }
  return unread;
}

}  // namespace hybridflow
