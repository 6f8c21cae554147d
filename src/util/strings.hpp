// String helpers shared across the stack.
#pragma once

#include <string>
#include <string_view>
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

/// Append `v` exactly as printf("%.*f", prec, v) writes it (std::to_chars
/// fixed form is specified to give printf's digits), without a format pass.
void append_fixed(std::string& out, double v, int prec);

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
