#pragma once
/// \file ParseNumber.h
/// Strict number parsing for command-line values. `std::stoull`/`std::stod`
/// accept "12x" as 12, wrap "-3" to 2^64-3, and escape as uncaught
/// std::invalid_argument / std::out_of_range on garbage; these parse the
/// whole text with std::from_chars and report failures as an ArgError that
/// names the flag, which the bench mains turn into a usage error (exit 2).

#include <charconv>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace walb {

/// A malformed command-line value. what() names the flag and the value.
struct ArgError : std::invalid_argument {
    using std::invalid_argument::invalid_argument;
};

/// The whole of `text` as a T, or nullopt: no sign on unsigned types, no
/// leading/trailing characters, no overflow, and only finite floating
/// values. `allowNegative` = false also rejects negative signed/floating
/// values.
template <typename T>
std::optional<T> tryParseNumber(std::string_view text, bool allowNegative = true) {
    static_assert(std::is_arithmetic_v<T>);
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
    if constexpr (std::is_floating_point_v<T>)
        if (!std::isfinite(value)) return std::nullopt;
    if constexpr (std::is_signed_v<T>)
        if (!allowNegative && value < T(0)) return std::nullopt;
    return value;
}

/// tryParseNumber or an ArgError naming `flag`.
template <typename T>
T parseNumber(std::string_view flag, std::string_view text, bool allowNegative = true) {
    if (const auto v = tryParseNumber<T>(text, allowNegative)) return *v;
    std::string what = std::string(flag) + ": '" + std::string(text) + "' is not a ";
    if constexpr (std::is_unsigned_v<T>) what += "non-negative integer";
    else if constexpr (std::is_integral_v<T>) what += "integer";
    else what += allowNegative ? "finite number" : "finite non-negative number";
    throw ArgError(what + " in range");
}

} // namespace walb
