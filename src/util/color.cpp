#include "util/color.hpp"

#include <algorithm>
#include <array>
#include <cctype>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace util {

namespace {

struct NamedColor {
  std::string_view name;
  Color color;
};

// The subset of X11 colours referenced by Pilot's colour scheme plus common
// neighbours so users altering pi_colors.hpp have room to move.
constexpr std::array<NamedColor, 38> kColors{{
    {"red", {255, 0, 0}},
    {"green", {0, 255, 0}},
    {"blue", {0, 0, 255}},
    {"white", {255, 255, 255}},
    {"black", {0, 0, 0}},
    {"yellow", {255, 255, 0}},
    {"gray", {128, 128, 128}},
    {"grey", {128, 128, 128}},
    {"lightgray", {211, 211, 211}},
    {"darkgray", {169, 169, 169}},
    {"dimgray", {105, 105, 105}},
    {"silver", {192, 192, 192}},
    {"bisque", {255, 228, 196}},
    {"forestgreen", {34, 139, 34}},
    {"darkgreen", {0, 100, 0}},
    {"seagreen", {46, 139, 87}},
    {"mediumseagreen", {60, 179, 113}},
    {"limegreen", {50, 205, 50}},
    {"palegreen", {152, 251, 152}},
    {"indianred", {205, 92, 92}},
    {"darkred", {139, 0, 0}},
    {"firebrick", {178, 34, 34}},
    {"crimson", {220, 20, 60}},
    {"salmon", {250, 128, 114}},
    {"lightcoral", {240, 128, 128}},
    {"orange", {255, 165, 0}},
    {"darkorange", {255, 140, 0}},
    {"gold", {255, 215, 0}},
    {"khaki", {240, 230, 140}},
    {"purple", {128, 0, 128}},
    {"violet", {238, 130, 238}},
    {"orchid", {218, 112, 214}},
    {"cyan", {0, 255, 255}},
    {"teal", {0, 128, 128}},
    {"navy", {0, 0, 128}},
    {"skyblue", {135, 206, 235}},
    {"steelblue", {70, 130, 180}},
    {"brown", {165, 42, 42}},
}};

bool equal_ci(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

const NamedColor* find_color(std::string_view name) {
  for (const auto& nc : kColors)
    if (equal_ci(nc.name, name)) return &nc;
  return nullptr;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw UsageError(std::string("bad hex digit '") + c + "' in colour");
}

}  // namespace

std::string Color::to_hex() const { return strprintf("#%02x%02x%02x", r, g, b); }

Color color_by_name(std::string_view name) {
  if (const auto* nc = find_color(name)) return nc->color;
  throw UsageError("unknown colour name: " + std::string(name));
}

bool is_known_color(std::string_view name) { return find_color(name) != nullptr; }

Color color_from_hex(std::string_view hex) {
  if (hex.size() != 7 || hex[0] != '#')
    throw UsageError("colour hex must look like #rrggbb, got: " + std::string(hex));
  auto byte = [&](std::size_t i) {
    return static_cast<std::uint8_t>(hex_digit(hex[i]) * 16 + hex_digit(hex[i + 1]));
  };
  return Color{byte(1), byte(3), byte(5)};
}

double luminance(const Color& c) {
  return 0.2126 * c.r + 0.7152 * c.g + 0.0722 * c.b;
}

}  // namespace util
