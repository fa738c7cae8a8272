// Byte-exact wire encoding primitives.
//
// Every payload in the system serializes through WireWriter/WireReader so
// the paper's bit-complexity accounting (`size_bits()`) can be checked
// against a real encoding, and so the protocol code can later run over a
// socket transport unchanged. The format is bit-granular: fields are
// appended MSB-first into a caller-owned byte buffer, padded to a whole
// byte only when a frame is finished. The codec moves up to 64 bits per
// step (a word accumulator when writing, an 8-byte window when reading);
// the byte layout is the same as writing one bit at a time.
//
// Primitive menu (see DESIGN.md "Wire format"):
//  * bits(v, w)     — raw w-bit field, for values with a known fixed width
//  * leb(v)         — LEB128 varint at bit granularity (7 value bits + 1
//                     continuation bit per group), for ids and counters
//  * zz64(x)        — zigzag-64 then LEB, for u64s that cluster near 0 or
//                     near 2^64 (sentinels like kNoNode, kMaxKey)
//  * gamma(v)       — Elias gamma of v+1, for tags, enums and tiny counts
//                     (cost 2*floor(log2(v+1))+1 bits; 1 bit for v = 0)
//  * interval       — delta-packed [lo, hi]: zz(lo) then zz(hi - lo + 1),
//                     exact for every representable interval including the
//                     canonical empty {1, 0} (length encodes as zz(0))
//
// Truncated or corrupt input raises sks::CheckFailure (catchable), never
// undefined behaviour: the reader refuses to run past the buffer end.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace sks::wire {

namespace detail {

/// Byte-at-a-time CRC32C (Castagnoli, reflected polynomial 0x82F63B78)
/// lookup table, generated at compile time. Software-only on purpose: the
/// simulator needs a portable, deterministic check, not throughput.
inline constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (c >> 1) ^ 0x82F63B78u : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    make_crc32c_table();

/// The 8 bytes at `p` as a big-endian word. Spelled out byte by byte so
/// compilers emit one load plus a byte swap.
inline std::uint64_t load_be64(const std::uint8_t* p) {
  return (std::uint64_t{p[0]} << 56) | (std::uint64_t{p[1]} << 48) |
         (std::uint64_t{p[2]} << 40) | (std::uint64_t{p[3]} << 32) |
         (std::uint64_t{p[4]} << 24) | (std::uint64_t{p[5]} << 16) |
         (std::uint64_t{p[6]} << 8) | std::uint64_t{p[7]};
}

/// Store `v` big-endian at `p`; the counterpart of load_be64.
inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 56);
  p[1] = static_cast<std::uint8_t>(v >> 48);
  p[2] = static_cast<std::uint8_t>(v >> 40);
  p[3] = static_cast<std::uint8_t>(v >> 32);
  p[4] = static_cast<std::uint8_t>(v >> 24);
  p[5] = static_cast<std::uint8_t>(v >> 16);
  p[6] = static_cast<std::uint8_t>(v >> 8);
  p[7] = static_cast<std::uint8_t>(v);
}

}  // namespace detail

/// CRC32C over a byte range. Used as the frame integrity trailer: CRC32C
/// has Hamming distance 4 over any frame length this repo produces, so
/// every 1-, 2- and 3-bit corruption of a frame is detected; random
/// corruption slips through with probability 2^-32.
inline std::uint32_t crc32c(const std::uint8_t* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ detail::kCrc32cTable[(crc ^ data[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Width of the frame integrity trailer appended by append_crc32c() /
/// consumed by verify_crc32c_trailer(). Counted as transport framing (not
/// payload body) in the wire-measurement metrics.
inline constexpr std::uint32_t kCrcTrailerBits = 32;

/// Appends bit-granular fields to a caller-owned byte vector. Fields
/// collect in a 64-bit accumulator that is flushed to the buffer one
/// big-endian word at a time; finish() flushes the remainder, so the
/// buffer holds every written bit only after finish(). The writer never
/// shrinks the buffer's capacity, so a pool-recycled scratch vector
/// reaches a steady state with no hot-path allocation.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& buf) : buf_(buf) {
    buf_.clear();
  }

  /// Append the low `width` bits of `v`, MSB first. width in [0, 64].
  void bits(std::uint64_t v, std::uint32_t width) {
    SKS_CHECK_MSG(width <= 64, "wire: field wider than 64 bits");
    if (width == 0) return;
    v &= ~std::uint64_t{0} >> (64 - width);
    bit_count_ += width;
    const std::uint32_t room = 64 - fill_;
    if (width < room) {
      acc_ = (acc_ << width) | v;
      fill_ += width;
      return;
    }
    // The field completes the word: its top `room` bits end it, its low
    // `spill` bits start the next one (bits above them are shifted out
    // before they can reach the buffer). An empty accumulator means a
    // 64-bit field and room == 64, which must not be a shift count.
    const std::uint32_t spill = width - room;
    const std::uint64_t word = fill_ == 0 ? v : (acc_ << room) | (v >> spill);
    const std::size_t at = buf_.size();
    buf_.resize(at + 8);
    detail::store_be64(buf_.data() + at, word);
    acc_ = v;
    fill_ = spill;
  }

  /// LEB128 varint, 8 bits per group (7 value + 1 continuation), written
  /// at bit granularity (no byte alignment between fields). Groups are
  /// gathered into one field of up to 64 bits before they are written.
  void leb(std::uint64_t v) {
    std::uint64_t field = 0;
    std::uint32_t width = 0;
    do {
      const std::uint64_t group = v & 0x7f;
      v >>= 7;
      field = (field << 8) | group | (v != 0 ? 0x80u : 0x00u);
      width += 8;
      if (width == 64) {
        bits(field, 64);
        field = 0;
        width = 0;
      }
    } while (v != 0);
    bits(field, width);
  }

  /// Zigzag-64 then LEB: maps x near 0 and near 2^64 to short varints.
  void zz64(std::uint64_t x) {
    const std::uint64_t s = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(x) >> 63);
    leb((x << 1) ^ s);
  }

  /// Elias gamma of v + 1: floor(log2(v+1)) zero bits, then v + 1 in
  /// binary. Encodes v = 0 in a single bit — ideal for tags and enums.
  void gamma(std::uint64_t v) {
    SKS_CHECK_MSG(v != ~0ull, "wire: gamma overflow");
    const std::uint64_t n = v + 1;
    const auto w = static_cast<std::uint32_t>(std::bit_width(n)) - 1;
    bits(0, w);
    bits(n, w + 1);
  }

  /// Total-domain gamma: like gamma() but also admits ~0 via a reserved
  /// 65-bit escape (64 zeros, then the terminating 1). Use for fields
  /// that are usually tiny but may hold an all-ones sentinel.
  void gammau(std::uint64_t v) {
    if (v == ~0ull) {
      bits(0, 64);
      bits(1, 1);
      return;
    }
    gamma(v);
  }

  /// Elias delta of v + 1: gamma of the bit length, then the value with
  /// its implicit leading 1 dropped. Cheaper than gamma beyond ~4 bits
  /// (a b-bit value costs b + 2 log b instead of 2b). Total: v = ~0
  /// escapes via the out-of-range length 64.
  void delta(std::uint64_t v) {
    if (v == ~0ull) {
      gamma(64);
      return;
    }
    const std::uint64_t x = v + 1;
    const auto len = static_cast<std::uint32_t>(std::bit_width(x)) - 1;
    gamma(len);
    bits(x, len);  // low len bits; the leading 1 is implicit
  }

  /// Zigzag then Elias gamma: a signed-ish delta near 0 costs 1–3 bits.
  void gamma_zz(std::uint64_t x) {
    const std::uint64_t s = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(x) >> 63);
    gamma((x << 1) ^ s);
  }

  void boolean(bool b) { bits(b ? 1u : 0u, 1); }

  /// Closed interval [lo, hi] with the empty convention lo = hi + 1:
  /// zz(lo) then zz(hi - lo + 1). Exact mod 2^64 for any (lo, hi) pair.
  void interval(std::uint64_t lo, std::uint64_t hi) {
    zz64(lo);
    zz64(hi - lo + 1);
  }

  /// Mark the end of the outer frame header (after the outer action tag):
  /// everything before this is transport framing, everything after up to
  /// the inner split is envelope payload. Used for metrics attribution.
  void note_frame_header_end() { frame_header_end_ = bit_count_; }

  /// Mark the start of the innermost (logical) payload body, called by
  /// envelope encoders (RouteHop/VertexMsg) right before encoding the
  /// carried payload. Absent for non-envelope payloads.
  void note_inner_start() { inner_start_ = bit_count_; }

  std::uint64_t bit_count() const { return bit_count_; }
  std::uint64_t frame_header_end() const { return frame_header_end_; }
  /// 0 when no envelope marked an inner split.
  std::uint64_t inner_start() const { return inner_start_; }

  /// Pad to a whole byte and move the accumulated bits into the buffer.
  /// Call exactly once, after the last field.
  void finish() {
    if (fill_ == 0) return;
    const std::uint32_t bytes = (fill_ + 7) / 8;
    put_bytes(acc_ << (64 - fill_), bytes);
    bit_count_ += bytes * 8 - fill_;
    fill_ = 0;
  }

  /// Append the CRC32C of every byte written so far as a 4-byte
  /// big-endian trailer. Call after finish(): the trailer must start (and
  /// end) byte-aligned so the protected region is a whole-byte prefix.
  void append_crc32c() {
    SKS_CHECK_MSG((bit_count_ % 8) == 0, "wire: crc trailer before finish");
    finish();  // byte-aligned, so this only flushes the accumulator
    const std::uint32_t crc = crc32c(buf_.data(), buf_.size());
    put_bytes(std::uint64_t{crc} << 32, 4);
    bit_count_ += kCrcTrailerBits;
  }

 private:
  /// Append the top `n` bytes of `word`, most significant first.
  void put_bytes(std::uint64_t word, std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    for (std::size_t i = 0; i < n; ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(word >> (56 - 8 * i));
    }
  }

  std::vector<std::uint8_t>& buf_;
  std::uint64_t acc_ = 0;      ///< pending bits, right-aligned
  std::uint32_t fill_ = 0;     ///< pending bit count, always < 64
  std::uint64_t bit_count_ = 0;
  std::uint64_t frame_header_end_ = 0;
  std::uint64_t inner_start_ = 0;
};

/// Reads bit-granular fields back out of a byte buffer. Every read is
/// bounds-checked once against the readable end, then extracted from a
/// 64-bit big-endian window: running past the end raises CheckFailure.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data),
        size_(size),
        bit_limit_(static_cast<std::uint64_t>(size) * 8) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::uint64_t bits(std::uint32_t width) {
    SKS_CHECK_MSG(width <= 64, "wire: field wider than 64 bits");
    SKS_CHECK_MSG(width <= bits_remaining(), "wire: truncated buffer");
    if (width == 0) return 0;
    const std::uint64_t v = window() >> (64 - width);
    bit_pos_ += width;
    return v;
  }

  /// Accepts exactly what the writer emits: at most 10 groups, the 10th
  /// holding bit 63 alone, and no trailing all-zero group.
  std::uint64_t leb() {
    std::uint64_t v = 0;
    for (std::uint32_t shift = 0;; shift += 7) {
      const std::uint64_t group = bits(8);
      SKS_CHECK_MSG(shift < 63 || group == 1, "wire: varint overlong");
      v |= (group & 0x7f) << shift;
      if ((group & 0x80) == 0) {
        SKS_CHECK_MSG(group != 0 || shift == 0, "wire: varint not minimal");
        return v;
      }
    }
  }

  std::uint64_t zz64() {
    const std::uint64_t z = leb();
    return (z >> 1) ^ (~(z & 1) + 1);
  }

  std::uint64_t gamma() { return gamma_code(false); }
  std::uint64_t gammau() { return gamma_code(true); }

  std::uint64_t delta() {
    const std::uint64_t len = gamma();
    if (len == 64) return ~0ull;
    SKS_CHECK_MSG(len < 64, "wire: delta length out of range");
    const std::uint64_t x =
        (std::uint64_t{1} << len) | bits(static_cast<std::uint32_t>(len));
    return x - 1;
  }

  std::uint64_t gamma_zz() {
    const std::uint64_t z = gamma();
    return (z >> 1) ^ (~(z & 1) + 1);
  }

  bool boolean() { return bits(1) != 0; }

  struct Iv {
    std::uint64_t lo;
    std::uint64_t hi;
  };
  Iv interval() {
    const std::uint64_t lo = zz64();
    const std::uint64_t len = zz64();
    return Iv{lo, lo + len - 1};
  }

  std::uint64_t bit_pos() const { return bit_pos_; }
  std::uint64_t bits_remaining() const { return bit_limit_ - bit_pos_; }

  /// Verify and strip the CRC32C trailer: the final 4 bytes of the buffer
  /// must equal the CRC32C of everything before them. Call before the
  /// first field read; on success the readable window shrinks to the
  /// protected region so finish() audits the real frame padding. A short
  /// buffer or a mismatch raises CheckFailure, like any other corruption.
  void verify_crc32c_trailer() {
    SKS_CHECK_MSG(bit_pos_ == 0, "wire: crc check after reads started");
    SKS_CHECK_MSG((bit_limit_ % 8) == 0 &&
                      bit_limit_ >= 8 + kCrcTrailerBits,
                  "wire: frame too short for crc trailer");
    const std::size_t body = static_cast<std::size_t>(bit_limit_ / 8) - 4;
    const std::uint32_t stored = (std::uint32_t{data_[body]} << 24) |
                                 (std::uint32_t{data_[body + 1]} << 16) |
                                 (std::uint32_t{data_[body + 2]} << 8) |
                                 std::uint32_t{data_[body + 3]};
    SKS_CHECK_MSG(stored == crc32c(data_, body),
                  "wire: frame crc mismatch");
    bit_limit_ = static_cast<std::uint64_t>(body) * 8;
  }

  /// After the last field: only zero padding (< 8 bits) may remain.
  void finish() {
    SKS_CHECK_MSG(bits_remaining() < 8, "wire: trailing bytes after frame");
    SKS_CHECK_MSG(bits(static_cast<std::uint32_t>(bits_remaining())) == 0,
                  "wire: nonzero frame padding");
  }

 private:
  /// Shared by gamma() and, with `total`, gammau(). The zero prefix is
  /// counted in one step from the window. 64 zeros then a 1 is gammau's
  /// ~0 escape; in plain gamma it is a runaway code (and n << 64 would be
  /// UB anyway).
  std::uint64_t gamma_code(bool total) {
    const std::uint64_t remaining = bits_remaining();
    const auto w = static_cast<std::uint32_t>(std::countl_zero(window()));
    if (w == 64 && remaining >= 64) {
      SKS_CHECK_MSG(total, "wire: gamma runaway");
      bit_pos_ += 64;
      SKS_CHECK_MSG(bits(1) == 1, "wire: gamma runaway");
      return ~0ull;
    }
    // The window reads past the readable end: a 1 found there (or none)
    // means the prefix ran off the buffer.
    SKS_CHECK_MSG(w < remaining, "wire: truncated buffer");
    bit_pos_ += w;
    return bits(w + 1) - 1;  // the terminating 1 is n's leading bit
  }

  /// The 64 bits from the read position on, MSB-aligned: an 8-byte
  /// big-endian load plus one byte for the sub-byte offset. Within 9 bytes
  /// of the buffer end a byte loop reads zeros past it instead, so no load
  /// leaves the buffer. Bits past bit_limit_ are not masked: callers
  /// bounds-check before they use them.
  std::uint64_t window() const {
    const auto at = static_cast<std::size_t>(bit_pos_ / 8);
    const auto offset = static_cast<std::uint32_t>(bit_pos_ % 8);
    std::uint64_t word = 0;
    std::uint64_t next = 0;
    if (at + 8 < size_) [[likely]] {
      word = detail::load_be64(data_ + at);
      next = data_[at + 8];
    } else {
      for (std::size_t i = at; i < at + 8; ++i) {
        word = (word << 8) | (i < size_ ? data_[i] : 0u);
      }
    }
    return (word << offset) | (next >> (8 - offset));
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::uint64_t bit_limit_;
  std::uint64_t bit_pos_ = 0;
};

}  // namespace sks::wire
