#include "tracestore/block.hpp"

#include <algorithm>

#include "tracestore/varint.hpp"

namespace ltefp::tracestore {
namespace {

// Matcher geometry. One hash slot per bucket keeps the matcher O(n) and
// deterministic (no chain-length heuristics to tune per platform).
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kMaxDist = 1u << 16;
constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

inline std::uint32_t hash4(const std::uint8_t* p) {
  // Multiplicative hash of the next four bytes (Fibonacci constant).
  std::uint32_t v;
  v = static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
      (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

std::vector<std::uint8_t> block_compress(std::span<const std::uint8_t> raw) {
  ByteWriter out;
  // One match table per thread, reset in place: a fresh 128 KiB table per
  // chunk was an allocation and a page-faulting fill on every chunk.
  thread_local std::vector<std::uint32_t> table(kHashSize);
  std::fill(table.begin(), table.end(), kNoPos);
  const std::size_t n = raw.size();
  std::size_t pos = 0;
  std::size_t lit_start = 0;

  const auto emit_group = [&](std::size_t lit_end, std::size_t match_len, std::size_t dist) {
    out.put_varint(lit_end - lit_start);
    out.append(raw.subspan(lit_start, lit_end - lit_start));
    if (match_len > 0) {
      out.put_varint(match_len);
      out.put_varint(dist);
    }
  };

  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatchLen <= n) {
      const std::uint32_t h = hash4(raw.data() + pos);
      const std::uint32_t cand = table[h];
      table[h] = static_cast<std::uint32_t>(pos);
      if (cand != kNoPos && pos - cand <= kMaxDist) {
        const std::size_t limit = n - pos;
        std::size_t len = 0;
        while (len < limit && raw[cand + len] == raw[pos + len]) ++len;
        if (len >= kMinMatchLen) {
          best_len = len;
          best_dist = pos - cand;
        }
      }
    }
    if (best_len > 0) {
      emit_group(pos, best_len, best_dist);
      // Seed the table across the matched span so later matches can refer
      // into it; stepping every other byte keeps this cheap on long runs.
      const std::size_t match_end = pos + best_len;
      for (std::size_t p = pos + 1; p + kMinMatchLen <= n && p < match_end; p += 2) {
        table[hash4(raw.data() + p)] = static_cast<std::uint32_t>(p);
      }
      pos = match_end;
      lit_start = pos;
    } else {
      ++pos;
    }
  }
  // A final empty literal group would be trailing garbage to the
  // decompressor (it stops the moment raw_len bytes are out), so only a
  // non-empty tail run is emitted.
  if (n > lit_start) emit_group(n, 0, 0);
  return std::vector<std::uint8_t>(out.bytes());
}

std::vector<std::uint8_t> block_decompress(std::span<const std::uint8_t> compressed,
                                           std::uint64_t raw_len, const std::string& context) {
  ByteReader r(compressed, context);
  if (raw_len > kMaxChunkPayload) {
    r.fail("declared uncompressed size " + std::to_string(raw_len) +
           " exceeds the chunk payload cap");
  }
  std::vector<std::uint8_t> out;
  out.reserve(raw_len);
  while (out.size() < raw_len) {
    const std::uint64_t lit_len = r.get_varint();
    if (lit_len > raw_len - out.size()) {
      r.fail("literal run of " + std::to_string(lit_len) + " bytes overruns declared size");
    }
    const auto lit = r.get_span(lit_len, "literal run");
    out.insert(out.end(), lit.begin(), lit.end());
    if (out.size() == raw_len) break;
    const std::uint64_t match_len = r.get_varint();
    if (match_len < kMinMatchLen) {
      r.fail("match length " + std::to_string(match_len) + " below minimum");
    }
    if (match_len > raw_len - out.size()) {
      r.fail("match of " + std::to_string(match_len) + " bytes overruns declared size");
    }
    const std::uint64_t dist = r.get_varint();
    if (dist == 0 || dist > out.size()) {
      r.fail("match distance " + std::to_string(dist) + " outside the bytes written so far");
    }
    // Overlapped copy (dist < match_len repeats the tail), byte by byte on
    // purpose — the semantics LZ matches rely on.
    for (std::uint64_t i = 0; i < match_len; ++i) {
      out.push_back(out[out.size() - dist]);
    }
  }
  if (!r.at_end()) {
    r.fail(std::to_string(r.remaining()) + " trailing bytes after final group");
  }
  return out;
}

}  // namespace ltefp::tracestore
