// Read-only memory-mapped file with a heap-read fallback.
//
// MappedFile owns either an mmap(2) mapping or (when mmap fails at
// runtime, or tests disable it with set_mmap_enabled(false)) a heap buffer
// holding the whole file. Either way `bytes()` exposes the file
// image as one contiguous span.
//
// Lifetime rule, load-bearing for everything built on top: spans handed
// out by bytes() — and every view MappedReader derives from them — BORROW
// the mapping. They are valid only while the MappedFile lives; decoding a
// chunk after the file object is destroyed is use-after-unmap. Decoded
// records are owned copies and safe to keep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ltefp::tracestore {

/// Process-wide switch: whether MappedFile tries mmap (the default) or
/// reads the file onto the heap — the seam tests use to exercise the
/// heap fallback that otherwise runs only when mmap fails.
void set_mmap_enabled(bool enabled);

class MappedFile {
 public:
  MappedFile() = default;
  /// Maps (or reads) `path`; throws TraceStoreError when it cannot be
  /// opened or sized.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The whole file image. Borrowed — valid only while this object lives.
  std::span<const std::uint8_t> bytes() const {
    if (map_ != nullptr) {
      return {static_cast<const std::uint8_t*>(map_), map_len_};
    }
    return {heap_.data(), heap_.size()};
  }

 private:
  void release() noexcept;

  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  std::vector<std::uint8_t> heap_;
};

}  // namespace ltefp::tracestore
