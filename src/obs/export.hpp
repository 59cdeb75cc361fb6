// The one JSON output path: a small streaming writer every --json document
// (benches, kpqbench, obs/wf_metrics.hpp's write_metrics) goes through.
//
// Number formatting: non-finite values are written as 0, so a metric that
// never fired cannot emit invalid JSON; integral values print without a
// fractional part, and doubles use %.17g so any JSON reader recovers the
// exact double.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

namespace kpq::obs {

inline std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// Escape for a JSON string literal (metric names are plain identifiers,
/// but bench titles pass through here too).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// -------------------------------------------------------------- json writer

/// Streaming writer for the nested documents the benches emit. Caller
/// drives the nesting; commas are managed automatically.
class json_writer {
 public:
  std::string take() && { return std::move(out_); }
  const std::string& str() const noexcept { return out_; }

  json_writer& begin_object() { return open('{'); }
  json_writer& end_object() { return close('}'); }
  json_writer& begin_array() { return open('['); }
  json_writer& end_array() { return close(']'); }

  json_writer& key(const std::string& k) {
    comma();
    out_ += '"';
    out_ += json_escape(k);
    out_ += "\":";
    just_keyed_ = true;
    return *this;
  }

  json_writer& value(double v) { return raw(format_number(v)); }
  json_writer& value(std::uint64_t v) {
    return raw(std::to_string(v));
  }
  json_writer& value(std::int64_t v) { return raw(std::to_string(v)); }
  json_writer& value(int v) { return raw(std::to_string(v)); }
  json_writer& value(bool v) { return raw(v ? "true" : "false"); }
  json_writer& value(const std::string& v) {
    std::string quoted = "\"";
    quoted += json_escape(v);
    quoted += '"';
    return raw(quoted);
  }
  json_writer& value(const char* v) { return value(std::string(v)); }

 private:
  json_writer& open(char c) {
    comma();
    out_ += c;
    just_opened_ = true;
    just_keyed_ = false;
    return *this;
  }
  json_writer& close(char c) {
    out_ += c;
    just_opened_ = false;
    just_keyed_ = false;
    return *this;
  }
  json_writer& raw(const std::string& s) {
    comma();
    out_ += s;
    just_keyed_ = false;
    return *this;
  }
  void comma() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    if (!out_.empty() && !just_opened_) out_ += ',';
    just_opened_ = false;
  }

  std::string out_;
  bool just_opened_ = false;
  bool just_keyed_ = false;
};

}  // namespace kpq::obs
