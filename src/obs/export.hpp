// Exposition formats for metrics snapshots (obs/registry.hpp) and a small
// JSON writer the benches reuse for their --json output.
//
//   * to_json        — flat {"name": value, ...} object, stable key order.
//   * parse_flat_json — minimal reader for the inverse direction, used by
//                      the round-trip tests and by tooling that wants to
//                      diff two snapshots without a JSON dependency.
//
// Number formatting: non-finite values are clamped to 0 (registry already
// sanitizes; the writer guards again so hand-built snapshots cannot emit
// invalid JSON), integral values print without a fractional part, and
// doubles use %.17g so a round-trip is exact.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"

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

inline std::string to_json(const metrics_snapshot& snap) {
  std::string out = "{";
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (i) out += ",";
    // Appended piece by piece: a chain of string temporaries here trips
    // GCC 12's false-positive -Wrestrict at -O3 (char_traits.h).
    out += '"';
    out += json_escape(snap[i].name);
    out += "\":";
    out += format_number(snap[i].value);
  }
  out += "}";
  return out;
}

/// Minimal parser for the flat objects to_json() emits (string keys, number
/// values, no nesting). Returns pairs in document order; on malformed input
/// returns what it parsed up to the error. Test/tooling surface, not a
/// general JSON library.
inline std::vector<std::pair<std::string, double>> parse_flat_json(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> out;
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return out;
  ++i;
  for (;;) {
    skip_ws();
    if (i >= text.size() || text[i] == '}') break;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] != '"') break;
    ++i;
    std::string key;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) {
        // Decode the escapes json_escape() emits (plus the remaining JSON
        // single-char ones), so escape -> parse round-trips losslessly.
        const char e = text[i + 1];
        i += 2;
        switch (e) {
          case '"': key += '"'; break;
          case '\\': key += '\\'; break;
          case '/': key += '/'; break;
          case 'n': key += '\n'; break;
          case 't': key += '\t'; break;
          case 'r': key += '\r'; break;
          case 'b': key += '\b'; break;
          case 'f': key += '\f'; break;
          case 'u': {
            if (i + 4 > text.size()) { i = text.size(); break; }
            unsigned code = 0;
            bool ok = true;
            for (std::size_t k = 0; k < 4; ++k) {
              const char h = text[i + k];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else { ok = false; break; }
            }
            if (!ok) break;  // malformed escape: drop it, keep parsing
            i += 4;
            // UTF-8-encode the code point (json_escape only emits < 0x20,
            // but accept the full BMP for robustness).
            if (code < 0x80) {
              key += static_cast<char>(code);
            } else if (code < 0x800) {
              key += static_cast<char>(0xC0 | (code >> 6));
              key += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              key += static_cast<char>(0xE0 | (code >> 12));
              key += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              key += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: key += e;  // unknown escape: keep the char literally
        }
      } else {
        key += text[i++];
      }
    }
    if (i >= text.size()) break;
    ++i;  // closing quote
    skip_ws();
    if (i >= text.size() || text[i] != ':') break;
    ++i;
    skip_ws();
    char* end = nullptr;
    const double v = std::strtod(text.c_str() + i, &end);
    if (end == text.c_str() + i) break;
    i = static_cast<std::size_t>(end - text.c_str());
    out.emplace_back(std::move(key), v);
  }
  return out;
}

// -------------------------------------------------------------- json writer

/// Streaming writer for the nested documents the benches emit (metrics
/// snapshots stay flat and use to_json above). Caller drives the nesting;
/// commas are managed automatically.
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
