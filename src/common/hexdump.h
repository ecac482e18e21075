// Byte-buffer renderings: a classic offset/hex/ASCII debug dump, and the
// compact lowercase hex string the trace exports carry datagrams in.
#ifndef SRC_COMMON_HEXDUMP_H_
#define SRC_COMMON_HEXDUMP_H_

#include <string>
#include <string_view>

#include "src/common/bytes.h"

namespace circus {

// Formats `data` 16 bytes per line, e.g.
// 00000000  00 01 00 03 00 00 00 2a  |.......*|
std::string HexDump(const Bytes& data);

// "00ff107a" for {0x00, 0xFF, 0x10, 0x7A}.
std::string HexEncode(const Bytes& data);
// Inverse of HexEncode (either case); false on odd length or a non-hex
// digit, leaving `out` unspecified.
bool HexDecode(std::string_view text, Bytes* out);

}  // namespace circus

#endif  // SRC_COMMON_HEXDUMP_H_
