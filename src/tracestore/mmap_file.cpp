#include "tracestore/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <utility>

#include "tracestore/format.hpp"

namespace ltefp::tracestore {
namespace {

std::atomic<bool> g_mmap_enabled{true};

}  // namespace

void set_mmap_enabled(bool enabled) { g_mmap_enabled.store(enabled, std::memory_order_relaxed); }

MappedFile::MappedFile(const std::string& path) {
  if (g_mmap_enabled.load(std::memory_order_relaxed)) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw TraceStoreError(path + ": cannot open trace file");
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw TraceStoreError(path + ": cannot stat trace file");
    }
    const std::size_t len = static_cast<std::size_t>(st.st_size);
    if (len == 0) {
      ::close(fd);
      return;  // empty file: empty span, nothing to map
    }
    void* p = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p != MAP_FAILED) {
      map_ = p;
      map_len_ = len;
      return;
    }
    // mmap can legitimately fail (e.g. special filesystems); fall through
    // to the heap read rather than erroring out.
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceStoreError(path + ": cannot open trace file");
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) throw TraceStoreError(path + ": cannot size trace file");
  in.seekg(0, std::ios::beg);
  heap_.resize(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(heap_.data()), size);
    if (in.gcount() != size) throw TraceStoreError(path + ": short read");
  }
}

MappedFile::~MappedFile() { release(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      heap_(std::move(other.heap_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    release();
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    heap_ = std::move(other.heap_);
  }
  return *this;
}

void MappedFile::release() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    map_len_ = 0;
  }
}

}  // namespace ltefp::tracestore
