// Hand-built write-ahead-log frames for the log and recovery tests.
//
// A bit-at-a-time reference CRC-32 and a frame encoder that share no code
// with storage::WalWriter, so a test can check the writer's framing and
// checksum against an independent implementation, and can write records
// the writer never emits: the legacy full-page images (kPageImage,
// kBeforeImage) and record types no binary knows.

#ifndef RTB_TESTS_WAL_FRAMES_H_
#define RTB_TESTS_WAL_FRAMES_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace rtb::testutil {

// CRC-32, IEEE 802.3: reflected polynomial 0xEDB88320, init and xorout
// 0xFFFFFFFF, one bit at a time.
inline uint32_t ReferenceCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

// One frame as the log lays it out: u32 CRC of every byte after it, u32
// payload length, u64 LSN, u32 type, u32 page id, then the payload.
inline std::vector<uint8_t> WalFrame(uint32_t type, uint64_t lsn,
                                     uint32_t page_id,
                                     const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame(24 + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(frame.data() + 4, &len, 4);
  std::memcpy(frame.data() + 8, &lsn, 8);
  std::memcpy(frame.data() + 16, &type, 4);
  std::memcpy(frame.data() + 20, &page_id, 4);
  if (!payload.empty()) {
    std::memcpy(frame.data() + 24, payload.data(), payload.size());
  }
  const uint32_t crc = ReferenceCrc32(frame.data() + 4, frame.size() - 4);
  std::memcpy(frame.data(), &crc, 4);
  return frame;
}

// The payload of a commit or checkpoint record: the store's page count.
inline std::vector<uint8_t> PageCountPayload(uint64_t num_pages) {
  std::vector<uint8_t> out(sizeof(num_pages));
  std::memcpy(out.data(), &num_pages, sizeof(num_pages));
  return out;
}

// Appends `bytes` to the file at `path` (creating it); false on failure.
inline bool AppendToFile(const std::string& path,
                         const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace rtb::testutil

#endif  // RTB_TESTS_WAL_FRAMES_H_
