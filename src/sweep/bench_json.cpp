#include "sweep/bench_json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/check.h"

namespace saf::sweep {

// --- writer ------------------------------------------------------------

void JsonWriter::comma_and_indent() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows "key": directly
  }
  if (!first_in_scope_.empty()) {
    if (!first_in_scope_.back()) out_ += ',';
    first_in_scope_.back() = false;
    out_ += '\n';
    out_.append(2 * first_in_scope_.size(), ' ');
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_and_indent();
  out_ += '{';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  SAF_CHECK(!first_in_scope_.empty());
  const bool empty = first_in_scope_.back();
  first_in_scope_.pop_back();
  if (!empty) {
    out_ += '\n';
    out_.append(2 * first_in_scope_.size(), ' ');
  }
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_and_indent();
  out_ += '[';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  SAF_CHECK(!first_in_scope_.empty());
  const bool empty = first_in_scope_.back();
  first_in_scope_.pop_back();
  if (!empty) {
    out_ += '\n';
    out_.append(2 * first_in_scope_.size(), ' ');
  }
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma_and_indent();
  out_ += '"';
  out_ += k;
  out_ += "\": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma_and_indent();
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.1f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_and_indent();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_and_indent();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_and_indent();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma_and_indent();
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += c;
  }
  out_ += '"';
  return *this;
}

// --- reader ------------------------------------------------------------

namespace {

/// Recursive-descent parser that records only numeric leaves.
class FlatParser {
 public:
  /// With `ints`, also records the plain unsigned-integer leaves there
  /// (node result files hold ~10^5 leaves, so only callers that need
  /// the exact view pay for a second map).
  explicit FlatParser(const std::string& text, FlatIntegers* ints = nullptr)
      : s_(text), ints_(ints) {}

  FlatJson parse() {
    skip_ws();
    parse_value("");
    skip_ws();
    if (at_ != s_.size()) fail("trailing characters");
    return std::move(out_);
  }

 private:
  void parse_value(const std::string& path) {
    skip_ws();
    if (at_ >= s_.size()) fail("unexpected end of input");
    const char c = s_[at_];
    if (c == '{') {
      parse_object(path);
    } else if (c == '[') {
      parse_array(path);
    } else if (c == '"') {
      parse_string();  // discarded
    } else if (c == 't') {
      expect("true");
      if (!path.empty()) out_[path] = 1;
    } else if (c == 'f') {
      expect("false");
      if (!path.empty()) out_[path] = 0;
    } else if (c == 'n') {
      expect("null");
    } else {
      parse_number(path);
    }
  }

  void parse_object(const std::string& path) {
    ++at_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++at_;
      return;
    }
    for (;;) {
      skip_ws();
      const std::string k = parse_string();
      skip_ws();
      if (peek() != ':') fail("expected ':'");
      ++at_;
      parse_value(path.empty() ? k : path + "." + k);
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      if (peek() == '}') {
        ++at_;
        return;
      }
      fail("expected ',' or '}'");
    }
  }

  void parse_array(const std::string& path) {
    ++at_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++at_;
      return;
    }
    for (std::size_t i = 0;; ++i) {
      parse_value(path + "." + std::to_string(i));
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      if (peek() == ']') {
        ++at_;
        return;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++at_;
    std::string out;
    while (at_ < s_.size() && s_[at_] != '"') {
      if (s_[at_] == '\\' && at_ + 1 < s_.size()) ++at_;
      out += s_[at_++];
    }
    if (at_ >= s_.size()) fail("unterminated string");
    ++at_;
    return out;
  }

  void parse_number(const std::string& path) {
    const std::size_t start = at_;
    while (at_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[at_])) ||
            s_[at_] == '-' || s_[at_] == '+' || s_[at_] == '.' ||
            s_[at_] == 'e' || s_[at_] == 'E')) {
      ++at_;
    }
    if (at_ == start) fail("expected a value");
    const std::string tok = s_.substr(start, at_ - start);
    try {
      const double v = std::stod(tok);
      if (!path.empty()) out_[path] = v;
    } catch (const std::exception&) {
      fail("bad number '" + tok + "'");
    }
    if (ints_ == nullptr || path.empty()) return;
    std::uint64_t u = 0;
    const char* end = tok.data() + tok.size();
    const auto [stop, ec] = std::from_chars(tok.data(), end, u);
    if (ec == std::errc() && stop == end) (*ints_)[path] = u;
  }

  void expect(std::string_view word) {
    if (s_.compare(at_, word.size(), word) != 0) {
      fail(std::string("expected '") + std::string(word) + "'");
    }
    at_ += word.size();
  }

  char peek() const { return at_ < s_.size() ? s_[at_] : '\0'; }
  void skip_ws() {
    while (at_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[at_]))) {
      ++at_;
    }
  }
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(at_));
  }

  const std::string& s_;
  std::size_t at_ = 0;
  FlatJson out_;
  FlatIntegers* ints_;
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Only throughput metrics gate: wall-time percentiles vary with the
/// machine and are recorded as diagnostics, not compared.
bool gates(std::string_view key) { return ends_with(key, "_per_sec"); }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

FlatJson parse_json_numbers(const std::string& text) {
  return FlatParser(text).parse();
}

FlatJson load_json_numbers(const std::string& path) {
  return parse_json_numbers(read_file(path));
}

FlatIntegers parse_json_integers(const std::string& text) {
  FlatIntegers ints;
  FlatParser(text, &ints).parse();
  return ints;
}

FlatIntegers load_json_integers(const std::string& path) {
  return parse_json_integers(read_file(path));
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
  if (!text.empty() && text.back() != '\n') out << '\n';
}

void write_file_atomic(const std::string& path, const std::string& text) {
  // Same directory as the target so the rename cannot cross devices.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out << text;
    if (!text.empty() && text.back() != '\n') out << '\n';
    out.flush();
    if (!out) throw std::runtime_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

RegressionReport compare_benchmarks(const FlatJson& baseline,
                                    const FlatJson& current,
                                    double tolerance) {
  RegressionReport report;
  for (const auto& [key, base] : baseline) {
    if (!gates(key)) continue;
    const auto it = current.find(key);
    if (it == current.end()) {
      report.missing.push_back(key);
      continue;
    }
    const double cur = it->second;
    if (base <= 0) continue;  // degenerate baseline: nothing to gate on
    const double ratio = cur / base;
    if (ratio < 1.0 - tolerance) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " (%+.1f%%)", (ratio - 1.0) * 100.0);
      std::ostringstream line;
      line << key << ": " << base << " -> " << cur << buf;
      report.regressions.push_back(line.str());
    }
  }
  return report;
}

RegressionReport compare_checksums(const FlatIntegers& baseline,
                                   const FlatIntegers& current) {
  RegressionReport report;
  for (const auto& [key, base] : baseline) {
    if (!ends_with(key, "digest_checksum")) continue;
    const auto it = current.find(key);
    if (it == current.end()) {
      report.missing.push_back(key);
    } else if (it->second != base) {
      report.regressions.push_back(key + ": " + std::to_string(base) +
                                   " -> " + std::to_string(it->second) +
                                   " (checksum differs)");
    }
  }
  return report;
}

}  // namespace saf::sweep
