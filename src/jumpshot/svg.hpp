// Shared by the timeline and statistics renderers (not a public header):
// the per-render category palette and the one-pass SVG emitter.
//
// Every SVG element is appended straight into the output string: numbers go
// through std::to_chars (the same digits printf writes), popup texts are
// escaped as they are copied, and each category's colour and escaped name
// are resolved once per render instead of once per drawable.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "slog2/slog2.hpp"
#include "util/color.hpp"
#include "util/strings.hpp"

namespace jumpshot::svg {

/// `s` up to its first NUL byte. CLOG-2 strings are length-prefixed and may
/// hold one; the SVG has always ended a text there, and its bytes are pinned.
inline std::string_view up_to_nul(std::string_view s) {
  return s.substr(0, s.find('\0'));
}

/// A category's fill colour ("#rrggbb") and XML-escaped name.
struct Swatch {
  std::string hex;
  std::string name;
};

/// Category id -> swatch. The first category with a given id wins; an
/// unknown id (or a colour name outside the palette) draws "#888888", and an
/// unknown id is named "?".
class Palette {
public:
  explicit Palette(const std::vector<slog2::Category>& cats) {
    for (const auto& c : cats)
      if (!by_id_.contains(c.id))
        by_id_.emplace(c.id, Swatch{hex_of(c.color), util::xml_escape(up_to_nul(c.name))});
  }

  [[nodiscard]] const Swatch& operator[](std::int32_t id) const {
    static const Swatch unknown{"#888888", "?"};
    const auto it = by_id_.find(id);
    return it == by_id_.end() ? unknown : it->second;
  }

  /// The fill colour a category colour name draws with.
  static std::string hex_of(std::string_view color) {
    return util::is_known_color(color) ? util::color_by_name(color).to_hex()
                                       : "#888888";
  }

private:
  std::unordered_map<std::int32_t, Swatch> by_id_;
};

/// printf("%.*f") of `v` with `prec` digits.
struct Fixed {
  double v;
  int prec;
};
/// util::human_seconds(v).
struct Seconds {
  double v;
};
/// util::xml_escape(up_to_nul(text)).
struct Escaped {
  std::string_view text;
};

inline void put(std::string& out, std::string_view s) { out += s; }
inline void put(std::string& out, Fixed f) { util::append_fixed(out, f.v, f.prec); }
inline void put(std::string& out, Seconds s) { util::append_human_seconds(out, s.v); }
inline void put(std::string& out, Escaped e) {
  util::append_xml_escaped(out, up_to_nul(e.text));
}
template <class T>
  requires std::is_integral_v<T>
void put(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Append every part in order: text verbatim, integers in decimal, and the
/// Fixed / Seconds / Escaped wrappers formatted as they say.
template <class... Parts>
void emit(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

}  // namespace jumpshot::svg
