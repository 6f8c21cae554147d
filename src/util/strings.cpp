#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace util {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' || s[e - 1] == '\r')) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string xml_escape(std::string_view s) {
  std::string out;
  append_xml_escaped(out, s);
  return out;
}

void append_xml_escaped(std::string& out, std::string_view s) {
  // Copy runs of plain bytes in one append; only the five specials expand.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char* entity = nullptr;
    switch (s[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      case '\'': entity = "&apos;"; break;
      default: continue;
    }
    out.append(s, run, i - run);
    out += entity;
    run = i + 1;
  }
  out.append(s, run);
}

std::string strprintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::string out = vstrprintf(fmt, ap);
  va_end(ap);
  return out;
}

std::string vstrprintf(const char* fmt, std::va_list ap) {
  // Format once into a stack buffer; only output that does not fit takes a
  // second pass straight into the string.
  char buf[256];
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  std::string out;
  if (n > 0) {
    const auto len = static_cast<std::size_t>(n);
    if (len < sizeof buf) {
      out.assign(buf, len);
    } else {
      out.resize(len);
      std::vsnprintf(out.data(), len + 1, fmt, ap2);
    }
  }
  va_end(ap2);
  return out;
}

void append_fixed(std::string& out, double v, int prec) {
  // Sign, 309 integer digits of DBL_MAX, the point and the fraction fit.
  char buf[512];
  const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, prec);
  if (r.ec == std::errc{}) {
    out.append(buf, r.ptr);
  } else {
    out += strprintf("%.*f", prec, v);
  }
}

void append_general(std::string& out, double v, int prec) {
  char buf[64];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, prec);
  if (r.ec == std::errc{}) {
    out.append(buf, r.ptr);
  } else {
    out += strprintf("%.*g", prec, v);
  }
}

std::string truncate_bytes(std::string_view s, std::size_t max_bytes) {
  if (s.size() <= max_bytes) return std::string(s);
  return std::string(s.substr(0, max_bytes));
}

std::string human_seconds(double seconds) {
  std::string out;
  append_human_seconds(out, seconds);
  return out;
}

void append_human_seconds(std::string& out, double seconds) {
  const double a = seconds < 0 ? -seconds : seconds;
  if (a >= 1.0) {
    append_fixed(out, seconds, 3);
    out += " s";
  } else if (a >= 1e-3) {
    append_fixed(out, seconds * 1e3, 3);
    out += " ms";
  } else if (a >= 1e-6) {
    append_fixed(out, seconds * 1e6, 3);
    out += " us";
  } else {
    append_fixed(out, seconds * 1e9, 1);
    out += " ns";
  }
}

std::string mask_floats(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    const bool digit = std::isdigit(static_cast<unsigned char>(text[i])) != 0;
    if (!digit) {
      out.push_back(text[i++]);
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j]))) ++j;
    bool is_float = false;
    if (j < text.size() && text[j] == '.') {
      std::size_t k = j + 1;
      while (k < text.size() && std::isdigit(static_cast<unsigned char>(text[k])))
        ++k;
      if (k > j + 1) {
        is_float = true;
        j = k;
        if (j < text.size() && (text[j] == 'e' || text[j] == 'E')) {
          std::size_t m = j + 1;
          if (m < text.size() && (text[m] == '+' || text[m] == '-')) ++m;
          std::size_t d = m;
          while (d < text.size() && std::isdigit(static_cast<unsigned char>(text[d])))
            ++d;
          if (d > m) j = d;
        }
      }
    }
    if (is_float) {
      out.push_back('#');
    } else {
      out.append(text, i, j - i);
    }
    i = j;
  }
  return out;
}

}  // namespace util

