#include "src/obs/json.hpp"

#include <cmath>
#include <cstdio>

namespace fcrit::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  out += json_escape(s);
  out += "\"";
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

namespace {

/// Cursor over the document; every parse_* consumes exactly one construct
/// or returns false with the position unspecified.
struct Checker {
  std::string_view s;
  std::size_t pos = 0;

  bool eof() const { return pos >= s.size(); }
  char peek() const { return s[pos]; }

  void skip_ws() {
    while (!eof() && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                      s[pos] == '\r'))
      ++pos;
  }

  bool literal(std::string_view word) {
    if (s.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool parse_string() {
    if (eof() || s[pos] != '"') return false;
    ++pos;
    while (!eof()) {
      const char c = s[pos];
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (eof()) return false;
        const char e = s[pos];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos + static_cast<std::size_t>(i) >= s.size() ||
                !std::isxdigit(static_cast<unsigned char>(s[pos + i])))
              return false;
          }
          pos += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos;
    }
    return false;  // unterminated
  }

  bool digits() {
    if (eof() || !std::isdigit(static_cast<unsigned char>(s[pos])))
      return false;
    while (!eof() && std::isdigit(static_cast<unsigned char>(s[pos]))) ++pos;
    return true;
  }

  bool parse_number() {
    if (!eof() && s[pos] == '-') ++pos;
    if (eof()) return false;
    if (s[pos] == '0') {
      ++pos;
    } else if (!digits()) {
      return false;
    }
    if (!eof() && s[pos] == '.') {
      ++pos;
      if (!digits()) return false;
    }
    if (!eof() && (s[pos] == 'e' || s[pos] == 'E')) {
      ++pos;
      if (!eof() && (s[pos] == '+' || s[pos] == '-')) ++pos;
      if (!digits()) return false;
    }
    return true;
  }

  bool parse_value(int depth) {
    if (depth > 256) return false;  // runaway nesting
    skip_ws();
    if (eof()) return false;
    const char c = peek();
    if (c == '"') return parse_string();
    if (c == '{') return parse_object(depth + 1);
    if (c == '[') return parse_array(depth + 1);
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return parse_number();
  }

  bool parse_object(int depth) {
    ++pos;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!parse_string()) return false;
      skip_ws();
      if (eof() || s[pos] != ':') return false;
      ++pos;
      if (!parse_value(depth)) return false;
      skip_ws();
      if (eof()) return false;
      if (s[pos] == ',') {
        ++pos;
        continue;
      }
      if (s[pos] == '}') {
        ++pos;
        return true;
      }
      return false;
    }
  }

  bool parse_array(int depth) {
    ++pos;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos;
      return true;
    }
    for (;;) {
      if (!parse_value(depth)) return false;
      skip_ws();
      if (eof()) return false;
      if (s[pos] == ',') {
        ++pos;
        continue;
      }
      if (s[pos] == ']') {
        ++pos;
        return true;
      }
      return false;
    }
  }
};

}  // namespace

bool json_valid(std::string_view text) {
  Checker c{text};
  if (!c.parse_value(0)) return false;
  c.skip_ws();
  return c.eof();
}

}  // namespace fcrit::obs
