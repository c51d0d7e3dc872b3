// Strict number parsing for the daemons' command-line flags. The whole
// argument must be a base-10 integer inside the range the flag accepts, so
// "70000" for a port or "-1" for a worker count is refused instead of being
// wrapped into some other value.
#pragma once

#include <charconv>
#include <limits>
#include <string_view>
#include <system_error>

namespace fpss::examples {

/// Parses all of `text` into `out` if it is a base-10 integer in
/// [min, max]. Returns false, leaving `out` alone, on an empty string,
/// a sign or trailing characters the type does not take, or a value out of
/// range.
template <typename T>
bool parse_number(std::string_view text, T& out,
                  T min = std::numeric_limits<T>::min(),
                  T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value < min || value > max)
    return false;
  out = value;
  return true;
}

}  // namespace fpss::examples
