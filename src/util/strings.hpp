// String helpers shared across the stack.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdarg>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace util {

/// Split on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Escape the five XML special characters; used by the SVG renderer for
/// popup/tooltip text.
std::string xml_escape(std::string_view s);

/// Append xml_escape(s) to `out`.
void append_xml_escaped(std::string& out, std::string_view s);

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string vstrprintf(const char* fmt, std::va_list ap);

/// Append `v` exactly as printf("%.*f", prec, v) writes it (std::to_chars
/// fixed form is specified to give printf's digits), without a format pass.
void append_fixed(std::string& out, double v, int prec);

/// Append `v` exactly as printf("%.*g", prec, v) writes it (std::to_chars
/// with a precision is specified to give printf's form).
void append_general(std::string& out, double v, int prec);

/// Append the decimal digits of an integer, exactly as printf's %d / %u /
/// %ld / %llu ... write a value of its type.
template <std::integral Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Append each part in turn: text as it is, integers as append_int writes
/// them (a char is neither; pass text).
template <typename... Parts>
void append_all(std::string& out, const Parts&... parts) {
  const auto one = [&out]<typename P>(const P& part) {
    if constexpr (std::is_integral_v<P>) {
      static_assert(!std::is_same_v<P, char>, "pass text, not a char");
      append_int(out, part);
    } else {
      out += part;
    }
  };
  (one(parts), ...);
}

/// Truncate a UTF-8-agnostic byte string to at most `max_bytes` bytes (the
/// MPE popup-text limit the paper mentions is 40 bytes).
std::string truncate_bytes(std::string_view s, std::size_t max_bytes);

/// Render seconds with a unit that keeps 3-4 significant digits
/// (e.g. "1.23 ms", "45.6 us", "3.21 s").
std::string human_seconds(double seconds);

/// Append human_seconds(seconds) to `out`.
void append_human_seconds(std::string& out, double seconds);

/// Replace every floating-point literal ("3.14", "1.2e-05") with '#' so
/// time-derived texts compare equal across runs. Integers survive
/// ("ready=2" is a recorded decision, not a time). Shared by the replay
/// fingerprint and the trace differ's timestamp-free projections.
std::string mask_floats(const std::string& text);

}  // namespace util
