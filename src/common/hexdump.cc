#include "src/common/hexdump.h"

#include <cctype>
#include <cstdio>

namespace circus {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string HexDump(const Bytes& data) {
  std::string out;
  char line[32];
  for (size_t offset = 0; offset < data.size(); offset += 16) {
    std::snprintf(line, sizeof(line), "%08zx  ", offset);
    out += line;
    for (size_t i = 0; i < 16; ++i) {
      if (offset + i < data.size()) {
        std::snprintf(line, sizeof(line), "%02x ", data[offset + i]);
        out += line;
      } else {
        out += "   ";
      }
      if (i == 7) {
        out += ' ';
      }
    }
    out += " |";
    for (size_t i = 0; i < 16 && offset + i < data.size(); ++i) {
      const int c = data[offset + i];
      out += std::isprint(c) ? static_cast<char>(c) : '.';
    }
    out += "|\n";
  }
  return out;
}

std::string HexEncode(const Bytes& data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

bool HexDecode(std::string_view text, Bytes* out) {
  if (text.size() % 2 != 0) {
    return false;
  }
  out->clear();
  out->reserve(text.size() / 2);
  for (size_t i = 0; i < text.size(); i += 2) {
    const int hi = HexNibble(text[i]);
    const int lo = HexNibble(text[i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out->push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return true;
}

}  // namespace circus
