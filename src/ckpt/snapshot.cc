#include "ckpt/snapshot.h"

#include <fstream>

#include "common/binio.h"

namespace nu::ckpt {
namespace {

// "NUSNAP01" little-endian.
constexpr std::uint64_t kMagic = 0x313050414E53554EULL;

}  // namespace

std::uint64_t WriteSnapshotFile(const std::filesystem::path& path,
                                std::string_view payload) {
  // The header goes out first and the payload straight after it from the
  // caller's buffer, so the payload is never copied into a frame.
  BinWriter header;
  header.U64(kMagic);
  header.U32(kSnapshotVersion);
  header.U64(payload.size());
  header.U32(Crc32(payload));

  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open snapshot tmp file: " +
                               tmp.string());
    }
    out.write(header.buffer().data(),
              static_cast<std::streamsize>(header.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("snapshot write failed: " + tmp.string());
    }
  }
  std::filesystem::rename(tmp, path);
  return header.size() + payload.size();
}

std::string ReadSnapshotFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open snapshot file: " + path.string());
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  try {
    BinReader reader(bytes);
    if (reader.U64() != kMagic) throw SnapshotCorruption("bad magic");
    const std::uint32_t version = reader.U32();
    if (version != kSnapshotVersion) {
      throw SnapshotCorruption("version mismatch: file has v" +
                               std::to_string(version) + ", reader expects v" +
                               std::to_string(kSnapshotVersion));
    }
    const std::uint64_t payload_size = reader.U64();
    const std::uint32_t crc = reader.U32();
    if (payload_size != reader.remaining()) {
      throw SnapshotCorruption("payload size mismatch");
    }
    std::string payload =
        bytes.substr(reader.position(), static_cast<std::size_t>(payload_size));
    if (Crc32(payload) != crc) throw SnapshotCorruption("checksum mismatch");
    return payload;
  } catch (const CorruptInput& e) {
    throw SnapshotCorruption(std::string("truncated frame (") + e.what() + ")");
  }
}

}  // namespace nu::ckpt
