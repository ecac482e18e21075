#include "src/common/endpoint.h"

#include <charconv>

namespace circus {

bool ParseIpv4Endpoint(std::string_view text, uint32_t* host,
                       uint16_t* port) {
  const char* cur = text.data();
  const char* end = cur + text.size();
  // One field: 1..`digits` decimal digits worth at most `max`, followed
  // by `separator` ('\0': by the end of the text).
  const auto field = [&](int digits, uint32_t max, char separator,
                         uint32_t* out) {
    const auto [next, ec] = std::from_chars(cur, end, *out);
    if (ec != std::errc() || next - cur > digits || *out > max ||
        (separator == '\0' ? next != end
                           : next == end || *next != separator)) {
      return false;
    }
    cur = separator == '\0' ? next : next + 1;
    return true;
  };
  uint32_t a = 0, b = 0, c = 0, d = 0, p = 0;
  if (!field(3, 255, '.', &a) || !field(3, 255, '.', &b) ||
      !field(3, 255, '.', &c) || !field(3, 255, ':', &d) ||
      !field(5, 65535, '\0', &p)) {
    return false;
  }
  *host = a << 24 | b << 16 | c << 8 | d;
  *port = static_cast<uint16_t>(p);
  return true;
}

}  // namespace circus
