// Wire-format unit tests: primitive codecs (including the total-domain
// sentinel escapes), a differential fuzz of the codec against a
// bit-at-a-time reference, registry registration rules, a deterministic-rng
// round-trip fuzz over every action registered in this binary, rejection
// of truncated / corrupted frames, and golden byte-layout fixtures — one
// payload per layer — that pin the encoding so accidental format changes
// fail loudly.
//
// The fuzz invariant mirrors the network's wire mode: encode → decode →
// re-encode must reproduce the original frame byte for byte.
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aggregation/aggregator.hpp"
#include "aggregation/broadcast.hpp"
#include "baselines/centralized.hpp"
#include "baselines/gossip_select.hpp"
#include "baselines/naive_kselect.hpp"
#include "baselines/nobatch.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "dht/dht.hpp"
#include "kselect/kselect.hpp"
#include "overlay/membership.hpp"
#include "overlay/overlay_node.hpp"
#include "recovery/recovery.hpp"
#include "seap/seap_node.hpp"
#include "sim/payload.hpp"
#include "sim/reliable.hpp"
#include "skeap/skeap_node.hpp"

namespace sks {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Build the expected byte image from a literal bit string ("0100...").
std::vector<std::uint8_t> bits_to_bytes(const std::string& bits) {
  std::vector<std::uint8_t> out((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') out[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
  }
  return out;
}

/// The body bytes of one payload (no frame tag): what the golden fixtures
/// pin. Stable across registration order, unlike the full frame.
std::vector<std::uint8_t> body_bytes(const sim::Payload& p) {
  std::vector<std::uint8_t> buf;
  wire::WireWriter w(buf);
  p.encode(w);
  w.finish();
  return buf;
}

std::vector<std::uint8_t> frame_bytes(const sim::Payload& p) {
  std::vector<std::uint8_t> buf;
  wire::WireWriter w(buf);
  sim::encode_frame(p, w);
  return buf;
}

/// The wire-mode invariant: encode → decode → re-encode reproduces the
/// original frame byte for byte.
void expect_frame_roundtrip(const sim::Payload& p,
                            std::set<sim::ActionId>* covered = nullptr) {
  const std::vector<std::uint8_t> buf = frame_bytes(p);
  wire::WireReader r(buf);
  sim::PayloadPtr q = sim::decode_frame(r);
  ASSERT_EQ(q->tag(), p.tag()) << p.name();
  EXPECT_EQ(frame_bytes(*q), buf) << "re-encode mismatch for " << p.name();
  if (covered != nullptr) covered->insert(p.tag());
}

/// Same invariant for bare value types (Element, Interval, Batch, ...)
/// that serialize without a frame of their own.
template <class V>
void expect_value_roundtrip(const V& v) {
  std::vector<std::uint8_t> buf;
  {
    wire::WireWriter w(buf);
    v.encode(w);
    w.finish();
  }
  wire::WireReader r(buf);
  const V v2 = V::decode(r);
  r.finish();
  std::vector<std::uint8_t> buf2;
  {
    wire::WireWriter w(buf2);
    v2.encode(w);
    w.finish();
  }
  EXPECT_EQ(buf2, buf);
}

/// Append a *valid* CRC trailer over the current bytes, so a test can put
/// a deliberately malformed body behind a passing checksum and prove the
/// structural audit (padding, trailing bytes) rejects it on its own.
void reseal_crc(std::vector<std::uint8_t>& buf) {
  const std::uint32_t crc = wire::crc32c(buf.data(), buf.size());
  buf.push_back(static_cast<std::uint8_t>(crc >> 24));
  buf.push_back(static_cast<std::uint8_t>(crc >> 16));
  buf.push_back(static_cast<std::uint8_t>(crc >> 8));
  buf.push_back(static_cast<std::uint8_t>(crc));
}

/// A u64 drawn from a magnitude-stratified distribution: small values,
/// mid-range values, full-width hashes and the all-ones sentinel all get
/// exercised (the varint codecs behave differently in each regime).
std::uint64_t rand_u64(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return rng.below(16);
    case 1: return rng.below(1u << 20);
    case 2: return rng.next();
    default: return ~0ull;
  }
}

Element rand_element(Rng& rng) { return Element{rand_u64(rng), rand_u64(rng)}; }

overlay::VirtualId rand_virtual_id(Rng& rng) {
  if (rng.below(4) == 0) return overlay::VirtualId{};
  overlay::VirtualId v;
  v.host = static_cast<NodeId>(rng.below(1u << 20));
  v.kind = static_cast<overlay::VKind>(rng.below(3));
  v.label = rng.next();
  return v;
}

Interval rand_interval(Rng& rng) {
  if (rng.below(4) == 0) return Interval::empty_interval();
  const Position lo = 1 + rng.below(1u << 20);
  return Interval{lo, lo + rng.below(256)};
}

dht::DhtComponent::ArcData rand_arc(Rng& rng) {
  dht::DhtComponent::ArcData arc;
  for (std::size_t space = 0; space < dht::DhtComponent::kNumSpaces; ++space) {
    const std::uint64_t cells = rng.below(4);
    for (std::uint64_t i = 0; i < cells; ++i) {
      auto& q = arc.elements[space][rng.next()];
      const std::uint64_t n = 1 + rng.below(3);
      for (std::uint64_t j = 0; j < n; ++j) q.push_back(rand_element(rng));
    }
    const std::uint64_t waits = rng.below(3);
    for (std::uint64_t i = 0; i < waits; ++i) {
      arc.waiting[space][rng.next()].push_back(dht::DhtComponent::WaitingGet{
          static_cast<NodeId>(rng.below(64)), rng.below(1u << 16)});
    }
  }
  return arc;
}

skeap::Batch rand_batch(Rng& rng) {
  const std::size_t priorities = 1 + rng.below(4);
  skeap::Batch b(priorities);
  const std::uint64_t ops = rng.below(12);
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (rng.below(2) != 0) {
      b.record_insert(1 + rng.below(priorities));
    } else {
      b.record_delete();
    }
  }
  return b;
}

kselect::KStep rand_kstep(Rng& rng) {
  kselect::KStep s;
  s.session = rng.below(1u << 16);
  s.step_seq = static_cast<std::uint32_t>(rng.below(1u << 16));
  s.iter = static_cast<std::uint32_t>(rng.below(64));
  s.kind = static_cast<kselect::StepKind>(rng.below(9));
  s.k = rng.below(1u << 20);
  s.N = rng.below(1u << 20);
  s.has_lo = rng.below(2) != 0;
  if (s.has_lo) s.lo = rand_element(rng);
  s.has_hi = rng.below(2) != 0;
  if (s.has_hi) s.hi = rand_element(rng);
  s.has_result = rng.below(2) != 0;
  if (s.has_result) s.result = rand_element(rng);
  return s;
}

kselect::KReply rand_kreply(Rng& rng) {
  kselect::KReply rep;
  rep.kind = static_cast<kselect::StepKind>(rng.below(9));
  rep.a = rng.below(1u << 20);
  rep.b = rng.below(1u << 20);
  rep.has_ka = rng.below(2) != 0;
  if (rep.has_ka) rep.ka = rand_element(rng);
  rep.has_kb = rng.below(2) != 0;
  if (rep.has_kb) rep.kb = rand_element(rng);
  return rep;
}

// ---------------------------------------------------------------------------
// Local payload types used by the registry tests (covered by the fuzz so
// the completeness assert holds regardless of gtest execution order).
// ---------------------------------------------------------------------------

struct DupFirst final : sim::Action<DupFirst> {
  static constexpr const char* kActionName = "test.wire.dup";
  std::uint64_t size_bits() const override { return 8; }
  void encode(wire::WireWriter&) const override {}
  static sim::Owned<DupFirst> decode(wire::WireReader&) {
    return sim::make_payload<DupFirst>();
  }
};

/// Distinct type, same action name: registration must be rejected.
struct DupSecond final : sim::Action<DupSecond> {
  static constexpr const char* kActionName = "test.wire.dup";
  std::uint64_t size_bits() const override { return 8; }
  void encode(wire::WireWriter&) const override {}
  static sim::Owned<DupSecond> decode(wire::WireReader&) {
    return sim::make_payload<DupSecond>();
  }
};

struct ThreadedPayload final : sim::Action<ThreadedPayload> {
  static constexpr const char* kActionName = "test.wire.threaded";
  std::uint64_t size_bits() const override { return 8; }
  void encode(wire::WireWriter&) const override {}
  static sim::Owned<ThreadedPayload> decode(wire::WireReader&) {
    return sim::make_payload<ThreadedPayload>();
  }
};

// ---------------------------------------------------------------------------
// Primitive codecs
// ---------------------------------------------------------------------------

TEST(WirePrimitives, RoundTripAcrossMagnitudes) {
  Rng rng(0x817e5ULL);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rand_u64(rng);
    std::vector<std::uint8_t> buf;
    wire::WireWriter w(buf);
    const std::uint32_t width = static_cast<std::uint32_t>(rng.below(65));
    const std::uint64_t narrowed =
        width == 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
    w.bits(narrowed, width);
    w.leb(v);
    w.zz64(v);
    if (v != ~0ull) w.gamma(v);
    w.gammau(v);
    w.delta(v);
    w.gamma_zz(v);
    w.boolean((v & 1) != 0);
    w.finish();

    wire::WireReader r(buf);
    EXPECT_EQ(r.bits(width), narrowed);
    EXPECT_EQ(r.leb(), v);
    EXPECT_EQ(r.zz64(), v);
    if (v != ~0ull) EXPECT_EQ(r.gamma(), v);
    EXPECT_EQ(r.gammau(), v);
    EXPECT_EQ(r.delta(), v);
    EXPECT_EQ(r.gamma_zz(), v);
    EXPECT_EQ(r.boolean(), (v & 1) != 0);
    r.finish();
  }
}

TEST(WirePrimitives, IntervalRoundTripsEveryShape) {
  Rng rng(0x1e7e2fULL);
  for (int i = 0; i < 500; ++i) {
    // Arbitrary (lo, hi) pairs, including hi < lo (the empty convention).
    const std::uint64_t lo = rand_u64(rng);
    const std::uint64_t hi = rand_u64(rng);
    std::vector<std::uint8_t> buf;
    wire::WireWriter w(buf);
    w.interval(lo, hi);
    w.finish();
    wire::WireReader r(buf);
    const wire::WireReader::Iv iv = r.interval();
    EXPECT_EQ(iv.lo, lo);
    EXPECT_EQ(iv.hi, hi);
    r.finish();
  }
}

TEST(WirePrimitives, GoldenEncodings) {
  const auto one = [](auto emit) {
    std::vector<std::uint8_t> buf;
    wire::WireWriter w(buf);
    emit(w);
    w.finish();
    return buf;
  };
  EXPECT_EQ(one([](wire::WireWriter& w) { w.leb(0); }),
            bits_to_bytes("00000000"));
  EXPECT_EQ(one([](wire::WireWriter& w) { w.leb(300); }),
            (std::vector<std::uint8_t>{0xAC, 0x02}));
  EXPECT_EQ(one([](wire::WireWriter& w) { w.zz64(~0ull); }),
            (std::vector<std::uint8_t>{0x01}));
  EXPECT_EQ(one([](wire::WireWriter& w) { w.gamma(0); }), bits_to_bytes("1"));
  EXPECT_EQ(one([](wire::WireWriter& w) { w.gamma(5); }),
            bits_to_bytes("00110"));
  // The all-ones escapes: 65 bits of gamma escape, delta's length-64 code.
  EXPECT_EQ(one([](wire::WireWriter& w) { w.gammau(~0ull); }),
            (std::vector<std::uint8_t>{0, 0, 0, 0, 0, 0, 0, 0, 0x80}));
  EXPECT_EQ(one([](wire::WireWriter& w) { w.delta(~0ull); }),
            bits_to_bytes("0000001000001"));
  EXPECT_EQ(one([](wire::WireWriter& w) { w.delta(0); }), bits_to_bytes("1"));
  EXPECT_EQ(one([](wire::WireWriter& w) { w.gamma_zz(~0ull); }),
            bits_to_bytes("010"));
  EXPECT_EQ(one([](wire::WireWriter& w) { w.interval(5, 9); }),
            (std::vector<std::uint8_t>{0x0A, 0x0A}));
}

TEST(WirePrimitives, GammaRejectsAllOnes) {
  std::vector<std::uint8_t> buf;
  wire::WireWriter w(buf);
  EXPECT_THROW(w.gamma(~0ull), CheckFailure);
  // Reading back: the 65-bit ~0 escape is gammau's alone.
  w.gammau(~0ull);
  w.finish();
  wire::WireReader total(buf);
  EXPECT_EQ(total.gammau(), ~0ull);
  wire::WireReader plain(buf);
  EXPECT_THROW(plain.gamma(), CheckFailure);
}

TEST(WirePrimitives, WriterReusesBufferCapacity) {
  std::vector<std::uint8_t> buf;
  {
    wire::WireWriter w(buf);
    for (int i = 0; i < 64; ++i) w.bits(~0ull, 64);
    w.finish();
  }
  const std::size_t cap = buf.capacity();
  {
    wire::WireWriter w(buf);
    w.leb(5);
    w.finish();
  }
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0x05}));
  EXPECT_EQ(buf.capacity(), cap) << "reuse must not shrink the buffer";
}

// ---------------------------------------------------------------------------
// Differential fuzz against a bit-at-a-time reference codec
// ---------------------------------------------------------------------------
// The production codec moves up to 64 bits per step. The reference below
// moves one bit per step and spells out the format directly: same fields,
// same checks, same rejections. The fuzz drives both with seeded field
// sequences that start at every bit offset, so the word codec's flush and
// window boundaries are hit at every alignment, not only the ones real
// payloads happen to produce.

class RefWriter {
 public:
  explicit RefWriter(std::vector<std::uint8_t>& buf) : buf_(buf) {
    buf_.clear();
  }

  void bits(std::uint64_t v, std::uint32_t width) {
    SKS_CHECK(width <= 64);
    for (std::uint32_t i = width; i-- > 0;) push_bit((v >> i) & 1u);
  }
  void leb(std::uint64_t v) {
    do {
      const std::uint64_t group = v & 0x7f;
      v >>= 7;
      bits(group | (v != 0 ? 0x80u : 0x00u), 8);
    } while (v != 0);
  }
  void zz64(std::uint64_t x) { leb(zigzag(x)); }
  void gamma(std::uint64_t v) {
    SKS_CHECK(v != ~0ull);
    const std::uint64_t n = v + 1;
    std::uint32_t w = 0;
    while (w < 63 && (n >> (w + 1)) != 0) ++w;
    bits(0, w);
    bits(n, w + 1);
  }
  void gammau(std::uint64_t v) {
    if (v == ~0ull) {
      bits(0, 64);
      bits(1, 1);
      return;
    }
    gamma(v);
  }
  void delta(std::uint64_t v) {
    if (v == ~0ull) {
      gamma(64);
      return;
    }
    const std::uint64_t x = v + 1;
    std::uint32_t len = 0;
    while (len < 63 && (x >> (len + 1)) != 0) ++len;
    gamma(len);
    bits(x, len);
  }
  void gamma_zz(std::uint64_t x) { gamma(zigzag(x)); }
  void boolean(bool b) { push_bit(b ? 1u : 0u); }
  void interval(std::uint64_t lo, std::uint64_t hi) {
    zz64(lo);
    zz64(hi - lo + 1);
  }

  void note_frame_header_end() { frame_header_end_ = bit_count_; }
  void note_inner_start() { inner_start_ = bit_count_; }
  std::uint64_t bit_count() const { return bit_count_; }
  std::uint64_t frame_header_end() const { return frame_header_end_; }
  std::uint64_t inner_start() const { return inner_start_; }

  void finish() {
    while ((bit_count_ % 8) != 0) push_bit(0);
  }
  void append_crc32c() {
    SKS_CHECK((bit_count_ % 8) == 0);
    bits(wire::crc32c(buf_.data(), buf_.size()), wire::kCrcTrailerBits);
  }

 private:
  static std::uint64_t zigzag(std::uint64_t x) {
    return (x << 1) ^
           static_cast<std::uint64_t>(static_cast<std::int64_t>(x) >> 63);
  }
  void push_bit(std::uint64_t b) {
    const std::size_t byte = static_cast<std::size_t>(bit_count_ / 8);
    if (byte == buf_.size()) buf_.push_back(0);
    if (b != 0) {
      buf_[byte] = static_cast<std::uint8_t>(buf_[byte] |
                                             (0x80u >> (bit_count_ % 8)));
    }
    ++bit_count_;
  }

  std::vector<std::uint8_t>& buf_;
  std::uint64_t bit_count_ = 0;
  std::uint64_t frame_header_end_ = 0;
  std::uint64_t inner_start_ = 0;
};

class RefReader {
 public:
  RefReader(const std::uint8_t* data, std::size_t size)
      : data_(data), bit_limit_(static_cast<std::uint64_t>(size) * 8) {}

  std::uint64_t bits(std::uint32_t width) {
    SKS_CHECK(width <= 64);
    std::uint64_t v = 0;
    for (std::uint32_t i = 0; i < width; ++i) v = (v << 1) | pull_bit();
    return v;
  }
  std::uint64_t leb() {
    std::uint64_t v = 0;
    for (std::uint32_t shift = 0;; shift += 7) {
      const std::uint64_t group = bits(8);
      SKS_CHECK(shift < 63 || group == 1);  // a 10th group holds bit 63 only
      v |= (group & 0x7f) << shift;
      if ((group & 0x80) == 0) {
        SKS_CHECK(group != 0 || shift == 0);  // no trailing zero group
        return v;
      }
    }
  }
  std::uint64_t zz64() { return unzigzag(leb()); }
  std::uint64_t gamma() {
    std::uint32_t w = 0;
    while (bits(1) == 0) {
      SKS_CHECK(w < 63);
      ++w;
    }
    std::uint64_t n = 1;
    if (w > 0) n = (n << w) | bits(w);
    return n - 1;
  }
  std::uint64_t gammau() {
    std::uint32_t w = 0;
    while (bits(1) == 0) {
      SKS_CHECK(w < 64);
      ++w;
    }
    if (w == 64) return ~0ull;
    std::uint64_t n = 1;
    if (w > 0) n = (n << w) | bits(w);
    return n - 1;
  }
  std::uint64_t delta() {
    const std::uint64_t len = gamma();
    if (len == 64) return ~0ull;
    SKS_CHECK(len < 64);
    return ((std::uint64_t{1} << len) |
            bits(static_cast<std::uint32_t>(len))) - 1;
  }
  std::uint64_t gamma_zz() { return unzigzag(gamma()); }
  bool boolean() { return bits(1) != 0; }
  wire::WireReader::Iv interval() {
    const std::uint64_t lo = zz64();
    const std::uint64_t len = zz64();
    return {lo, lo + len - 1};
  }

  std::uint64_t bit_pos() const { return bit_pos_; }

  void verify_crc32c_trailer() {
    SKS_CHECK(bit_pos_ == 0);
    SKS_CHECK((bit_limit_ % 8) == 0 &&
              bit_limit_ >= 8 + wire::kCrcTrailerBits);
    // Read the trailer as a field, then shrink the window to the body.
    bit_pos_ = bit_limit_ - wire::kCrcTrailerBits;
    const std::uint64_t stored = bits(wire::kCrcTrailerBits);
    bit_limit_ -= wire::kCrcTrailerBits;
    bit_pos_ = 0;
    const auto body = static_cast<std::size_t>(bit_limit_ / 8);
    SKS_CHECK(stored == wire::crc32c(data_, body));
  }
  void finish() {
    SKS_CHECK(bit_limit_ - bit_pos_ < 8);
    while (bit_pos_ < bit_limit_) SKS_CHECK(pull_bit() == 0);
  }

 private:
  static std::uint64_t unzigzag(std::uint64_t z) {
    return (z >> 1) ^ (~(z & 1) + 1);
  }
  std::uint64_t pull_bit() {
    SKS_CHECK(bit_pos_ < bit_limit_);
    const std::uint64_t byte = data_[bit_pos_ / 8];
    const std::uint64_t b = (byte >> (7 - bit_pos_ % 8)) & 1u;
    ++bit_pos_;
    return b;
  }

  const std::uint8_t* data_;
  std::uint64_t bit_limit_;
  std::uint64_t bit_pos_ = 0;
};

enum class Prim : std::uint8_t {
  kBits, kLeb, kZz64, kGamma, kGammau, kDelta, kGammaZz, kBoolean, kInterval,
};
constexpr std::uint64_t kNumPrims = 9;

/// One primitive call: `a` is the value (interval: lo), `b` the interval's
/// hi, `width` the bits() width.
struct Field {
  Prim prim = Prim::kBits;
  std::uint32_t width = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// A field sequence framed like a real message: `lead` bits (1..8, a
/// stand-in for the frame tag) before the header mark set the start
/// offset of the first field, and the inner mark sits before
/// fields[inner_at] (none when inner_at == size()).
struct Message {
  std::uint32_t lead = 0;
  std::uint64_t lead_value = 0;
  std::vector<Field> fields;
  std::size_t inner_at = 0;
  bool crc = false;
};

/// Every bit length is equally likely, plus the all-ones sentinels and
/// their neighbours: varint group counts, gamma widths past 32 and the
/// escape codes all come up.
std::uint64_t rand_edge_u64(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return rng.below(16);
    case 1: return rng.next() >> rng.below(64);
    case 2: return ~0ull - rng.below(3);
    default: return rng.next();
  }
}

Field rand_field(Rng& rng) {
  Field f;
  f.prim = static_cast<Prim>(rng.below(kNumPrims));
  f.width = static_cast<std::uint32_t>(rng.below(65));
  f.a = rand_edge_u64(rng);
  f.b = rand_edge_u64(rng);
  if (f.prim == Prim::kGamma && f.a == ~0ull) --f.a;  // outside gamma's domain
  return f;
}

Message rand_message(Rng& rng, std::uint32_t lead) {
  Message m;
  m.lead = lead;
  m.lead_value = rng.next();  // bits() must drop everything above `lead`
  const std::uint64_t n = rng.below(12);
  for (std::uint64_t i = 0; i < n; ++i) m.fields.push_back(rand_field(rng));
  m.inner_at = static_cast<std::size_t>(rng.below(n + 1));
  m.crc = rng.below(2) != 0;
  return m;
}

template <class W>
void write_field(W& w, const Field& f) {
  switch (f.prim) {
    case Prim::kBits: w.bits(f.a, f.width); break;
    case Prim::kLeb: w.leb(f.a); break;
    case Prim::kZz64: w.zz64(f.a); break;
    case Prim::kGamma: w.gamma(f.a); break;
    case Prim::kGammau: w.gammau(f.a); break;
    case Prim::kDelta: w.delta(f.a); break;
    case Prim::kGammaZz: w.gamma_zz(f.a); break;
    case Prim::kBoolean: w.boolean((f.a & 1) != 0); break;
    case Prim::kInterval: w.interval(f.a, f.b); break;
  }
}

/// The value(s) reading `f` back must yield.
void expected_values(const Field& f, std::vector<std::uint64_t>& out) {
  switch (f.prim) {
    case Prim::kBits:
      out.push_back(f.width == 64 ? f.a
                                  : f.a & ((std::uint64_t{1} << f.width) - 1));
      break;
    case Prim::kBoolean: out.push_back(f.a & 1); break;
    case Prim::kInterval:
      out.push_back(f.a);
      out.push_back(f.b);
      break;
    default: out.push_back(f.a); break;
  }
}

struct Written {
  std::vector<std::uint8_t> bytes;
  std::uint64_t bit_count = 0;
  std::uint64_t frame_header_end = 0;
  std::uint64_t inner_start = 0;
};

template <class W>
Written write_message(const Message& m) {
  Written out;
  W w(out.bytes);
  w.bits(m.lead_value, m.lead);
  w.note_frame_header_end();
  for (std::size_t i = 0; i < m.fields.size(); ++i) {
    if (i == m.inner_at) w.note_inner_start();
    write_field(w, m.fields[i]);
  }
  w.finish();
  if (m.crc) w.append_crc32c();
  out.bit_count = w.bit_count();
  out.frame_header_end = w.frame_header_end();
  out.inner_start = w.inner_start();
  return out;
}

/// Decoded values plus the read position after each field, so two readers
/// that agree on values but consume different bit counts still differ.
/// `rejected` marks a CheckFailure; the fields read before it stay, so two
/// readers must also reject at the same field.
struct Decoded {
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> positions;
  bool rejected = false;
  bool operator==(const Decoded&) const = default;
};

template <class R>
Decoded read_message(const Message& m, const std::uint8_t* data,
                     std::size_t size) {
  Decoded out;
  try {
    R r(data, size);
    if (m.crc) r.verify_crc32c_trailer();
    out.values.push_back(r.bits(m.lead));
    for (const Field& f : m.fields) {
      switch (f.prim) {
        case Prim::kBits: out.values.push_back(r.bits(f.width)); break;
        case Prim::kLeb: out.values.push_back(r.leb()); break;
        case Prim::kZz64: out.values.push_back(r.zz64()); break;
        case Prim::kGamma: out.values.push_back(r.gamma()); break;
        case Prim::kGammau: out.values.push_back(r.gammau()); break;
        case Prim::kDelta: out.values.push_back(r.delta()); break;
        case Prim::kGammaZz: out.values.push_back(r.gamma_zz()); break;
        case Prim::kBoolean: out.values.push_back(r.boolean()); break;
        case Prim::kInterval: {
          const auto iv = r.interval();
          out.values.push_back(iv.lo);
          out.values.push_back(iv.hi);
          break;
        }
      }
      out.positions.push_back(r.bit_pos());
    }
    r.finish();
  } catch (const CheckFailure&) {
    out.rejected = true;
  }
  return out;
}

TEST(WireDifferential, WordCodecMatchesBitAtATimeReference) {
  Rng rng(0xd1ff0c0dULL);
  for (int rep = 0; rep < 2000; ++rep) {
    const auto lead = static_cast<std::uint32_t>(1 + rep % 8);
    const Message m = rand_message(rng, lead);
    const Written got = write_message<wire::WireWriter>(m);
    const Written ref = write_message<RefWriter>(m);
    ASSERT_EQ(got.bytes, ref.bytes) << "rep " << rep;
    EXPECT_EQ(got.bit_count, ref.bit_count) << "rep " << rep;
    EXPECT_EQ(got.frame_header_end, ref.frame_header_end) << "rep " << rep;
    EXPECT_EQ(got.inner_start, ref.inner_start) << "rep " << rep;

    const std::uint8_t* data = got.bytes.data();
    const std::size_t size = got.bytes.size();
    const Decoded decoded = read_message<wire::WireReader>(m, data, size);
    EXPECT_FALSE(decoded.rejected) << "rep " << rep;
    EXPECT_EQ(decoded, read_message<RefReader>(m, data, size))
        << "rep " << rep;
    std::vector<std::uint64_t> want{m.lead_value &
                                    ((std::uint64_t{1} << lead) - 1)};
    for (const Field& f : m.fields) expected_values(f, want);
    EXPECT_EQ(decoded.values, want) << "rep " << rep;

    // Every byte carries at least one field or trailer bit, so every cut
    // must be rejected, by both readers at the same field.
    for (std::size_t len = 0; len < size; ++len) {
      const Decoded cut = read_message<wire::WireReader>(m, data, len);
      EXPECT_TRUE(cut.rejected) << "rep " << rep << " cut to " << len;
      EXPECT_EQ(cut, read_message<RefReader>(m, data, len))
          << "rep " << rep << " cut to " << len;
    }
  }
}

TEST(WireDifferential, ReadersAgreeOnArbitraryBytes) {
  // Byte soup biased toward long zero and one runs (gamma prefixes, the
  // 64-zero escape, varint continuation chains), read as a random field
  // sequence: both readers must decode the same values, consume the same
  // bits and reject at the same field.
  Rng rng(0xa9b1ee5ULL);
  std::vector<std::uint8_t> buf;
  std::uint64_t fields_read = 0;
  for (int rep = 0; rep < 20000; ++rep) {
    buf.resize(static_cast<std::size_t>(rng.below(40)));
    for (std::uint8_t& b : buf) {
      switch (rng.below(4)) {
        case 0: b = 0x00; break;
        case 1: b = 0xff; break;
        default: b = static_cast<std::uint8_t>(rng.below(256)); break;
      }
    }
    // Half the strings carry a valid CRC trailer. The readable end then
    // comes before the buffer end, as in every real frame, and reads must
    // stop there even though the trailer bytes follow.
    Message m = rand_message(rng, static_cast<std::uint32_t>(1 + rep % 8));
    m.crc = m.crc && !buf.empty();
    if (m.crc) reseal_crc(buf);
    const Decoded got = read_message<wire::WireReader>(m, buf.data(),
                                                       buf.size());
    EXPECT_EQ(got, read_message<RefReader>(m, buf.data(), buf.size()))
        << "rep " << rep;
    fields_read += got.positions.size();
  }
  // The soup must exercise the readers, not fail on the first field.
  EXPECT_GT(fields_read, 20000u);
}

// ---------------------------------------------------------------------------
// Registry rules
// ---------------------------------------------------------------------------

TEST(WireRegistry, DuplicateActionNameIsRejected) {
  DupFirst first;  // registers "test.wire.dup"
  EXPECT_THROW(DupSecond{}, CheckFailure)
      << "two payload types must not share an action name";
  // The failed registration must not have claimed an id.
  const sim::ActionRegistry& reg = sim::ActionRegistry::instance();
  EXPECT_EQ(reg.name(first.tag()), "test.wire.dup");
}

TEST(WireRegistry, ConcurrentFirstUseRegistersOnce) {
  std::vector<std::thread> threads;
  std::vector<sim::ActionId> ids(8, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    threads.emplace_back([&ids, i] { ids[i] = sim::action_tag_of<ThreadedPayload>(); });
  }
  for (auto& t : threads) t.join();
  for (const sim::ActionId id : ids) EXPECT_EQ(id, ids[0]);
  EXPECT_EQ(sim::ActionRegistry::instance().name(ids[0]),
            "test.wire.threaded");
}

TEST(WireRegistry, UnknownTagIsRejected) {
  std::vector<std::uint8_t> buf;
  wire::WireWriter w(buf);
  w.gamma(sim::ActionRegistry::instance().size() + 1000);
  w.finish();
  wire::WireReader r(buf);
  EXPECT_THROW(sim::decode_frame(r), CheckFailure);
}

TEST(WireRegistry, OutOfRangeTagIsRejected) {
  std::vector<std::uint8_t> buf;
  wire::WireWriter w(buf);
  w.gamma(std::uint64_t{1} << 32);  // beyond the 32-bit ActionId domain
  w.finish();
  wire::WireReader r(buf);
  EXPECT_THROW(sim::decode_frame(r), CheckFailure);
}

// ---------------------------------------------------------------------------
// Value-type codecs
// ---------------------------------------------------------------------------

TEST(WireValues, CoreValueTypesRoundTrip) {
  Rng rng(0x7a1ebULL);
  for (int i = 0; i < 200; ++i) {
    expect_value_roundtrip(rand_element(rng));
    expect_value_roundtrip(rand_virtual_id(rng));
    expect_value_roundtrip(rand_interval(rng));
  }
  // The non-canonical empty interval {5, 4} must survive as written.
  std::vector<std::uint8_t> buf;
  wire::WireWriter w(buf);
  Interval{5, 4}.encode(w);
  w.finish();
  wire::WireReader r(buf);
  const Interval iv = Interval::decode(r);
  EXPECT_EQ(iv.lo, 5u);
  EXPECT_EQ(iv.hi, 4u);
}

TEST(WireValues, BatchAndAssignmentRoundTrip) {
  Rng rng(0xba7cULL);
  for (int i = 0; i < 100; ++i) {
    const skeap::Batch batch = rand_batch(rng);
    expect_value_roundtrip(batch);
    // A real assignment (the anchor's own carve) for the batch; assigning
    // a second batch of the same width advances the cursors, so the delta
    // packing sees non-zero interval origins too.
    skeap::AnchorState anchor(batch.num_priorities());
    expect_value_roundtrip(anchor.assign(batch));
    skeap::Batch second(batch.num_priorities());
    const std::uint64_t ops = rng.below(8);
    for (std::uint64_t j = 0; j < ops; ++j) {
      if (rng.below(2) != 0) {
        second.record_insert(1 + rng.below(batch.num_priorities()));
      } else {
        second.record_delete();
      }
    }
    expect_value_roundtrip(anchor.assign(second));
  }
}

TEST(WireValues, ArcDataEncodesCanonically) {
  Rng rng(0xa2cULL);
  for (int i = 0; i < 50; ++i) {
    const dht::DhtComponent::ArcData arc = rand_arc(rng);
    expect_value_roundtrip(arc);
  }
}

// ---------------------------------------------------------------------------
// Round-trip fuzz over every registered action
// ---------------------------------------------------------------------------

/// Drive `fn(payload)` over `rounds` freshly built instances of every
/// registered payload type — the single source of "all payload types" for
/// both the byte-exact round-trip fuzz and the corruption fuzz below.
template <class Fn>
void sweep_sample_payloads(Rng& rng, int rounds, Fn&& fn) {
  for (int round = 0; round < rounds; ++round) {
    // --- dht ---------------------------------------------------------------
    {
      dht::PutRequest p;
      p.element = rand_element(rng);
      p.requester = static_cast<NodeId>(rng.below(1u << 12));
      p.request_id = rng.below(1u << 20);
      p.want_ack = rng.below(2) != 0;
      p.space = static_cast<std::uint8_t>(rng.below(2));
      p.bits = rng.below(1u << 12);
      fn(p);
    }
    {
      dht::GetRequest g;
      g.requester = static_cast<NodeId>(rng.below(1u << 12));
      g.request_id = rng.below(1u << 20);
      g.space = static_cast<std::uint8_t>(rng.below(2));
      g.bits = rng.below(1u << 12);
      fn(g);
    }
    {
      dht::GetReply rep;
      rep.element = rand_element(rng);
      rep.request_id = rng.below(1u << 20);
      fn(rep);
    }
    {
      dht::PutAck ack;
      ack.request_id = rand_u64(rng);
      fn(ack);
    }
    // --- transport / recovery ---------------------------------------------
    {
      sim::ReliableAck ack;
      ack.acked_seq = rand_u64(rng);
      fn(ack);
    }
    fn(recovery::Heartbeat{});
    fn(recovery::SuspectProbe{});
    fn(recovery::ProbeReply{});
    {
      recovery::ReplicaDelta d;
      d.owner = static_cast<NodeId>(rng.below(64));
      const std::uint64_t entries = rng.below(4);
      for (std::uint64_t i = 0; i < entries; ++i) {
        recovery::DeltaEntry e;
        e.space = static_cast<std::uint8_t>(rng.below(2));
        e.key = rng.next();
        const std::uint64_t elems = rng.below(4);
        for (std::uint64_t j = 0; j < elems; ++j) {
          e.elems.push_back(rand_element(rng));
        }
        d.entries.push_back(std::move(e));
      }
      const std::uint64_t words = rng.below(4);
      for (std::uint64_t i = 0; i < words; ++i) d.anchor_blob.push_back(rng.next());
      d.has_anchor = rng.below(2) != 0;
      d.digest = rand_u64(rng);
      fn(d);
    }
    // --- overlay envelopes (recursive inner frames) ------------------------
    {
      overlay::RouteHop hop;
      hop.target = rng.next();
      hop.d = static_cast<std::uint32_t>(rng.below(65));
      hop.rho = hop.d == 64
                    ? rng.next()
                    : (hop.d == 0 ? 0 : rng.next() & ((std::uint64_t{1} << hop.d) - 1));
      hop.ideal = rng.next();
      hop.phase_a_left = static_cast<std::uint32_t>(rng.below(64));
      hop.phase_b_done = static_cast<std::uint32_t>(rng.below(64));
      hop.anchored = rng.below(2) != 0;
      hop.at_kind = static_cast<overlay::VKind>(rng.below(3));
      hop.origin = static_cast<NodeId>(rng.below(1u << 12));
      hop.hops = rng.below(256);
      hop.header_bits = rng.below(1024);
      if (rng.below(4) != 0) {
        auto inner = sim::make_payload<dht::PutRequest>();
        inner->element = rand_element(rng);
        inner->requester = static_cast<NodeId>(rng.below(64));
        inner->request_id = rng.below(1u << 16);
        inner->bits = rng.below(1024);
        hop.inner = std::move(inner);
      }
      fn(hop);
    }
    {
      overlay::VertexMsg msg;
      msg.src = rand_virtual_id(rng);
      msg.dst_kind = static_cast<overlay::VKind>(rng.below(3));
      msg.header_bits = rng.below(1024);
      if (rng.below(4) != 0) {
        // Nested envelope: vertex -> route -> put, the deepest production
        // shape (tree edges forwarding a routed message).
        auto inner_hop = sim::make_payload<overlay::RouteHop>();
        inner_hop->target = rng.next();
        inner_hop->d = 4;
        inner_hop->rho = rng.below(16);
        auto leaf = sim::make_payload<dht::PutAck>();
        leaf->request_id = rng.below(1u << 16);
        inner_hop->inner = std::move(leaf);
        msg.inner = std::move(inner_hop);
      }
      fn(msg);
    }
    // --- membership --------------------------------------------------------
    {
      overlay::JoinReserve m;
      m.joiner = static_cast<NodeId>(rng.below(1u << 12));
      m.kind = static_cast<overlay::VKind>(rng.below(3));
      m.label = rng.next();
      fn(m);
    }
    {
      overlay::ReserveAck m;
      m.kind = static_cast<overlay::VKind>(rng.below(3));
      m.pred = rand_virtual_id(rng);
      m.succ = rand_virtual_id(rng);
      fn(m);
    }
    {
      overlay::JoinConfirm m;
      m.joiner = static_cast<NodeId>(rng.below(1u << 12));
      m.owner_kind = static_cast<overlay::VKind>(rng.below(3));
      m.first = rand_virtual_id(rng);
      m.last = rand_virtual_id(rng);
      fn(m);
    }
    {
      overlay::ArcTransfer m;
      m.kind = static_cast<overlay::VKind>(rng.below(3));
      m.arc = rand_arc(rng);
      fn(m);
    }
    {
      overlay::NeighborUpdate m;
      m.target_kind = static_cast<overlay::VKind>(rng.below(3));
      m.is_pred = rng.below(2) != 0;
      m.neighbor = rand_virtual_id(rng);
      fn(m);
    }
    {
      overlay::LeaveHandover m;
      m.pred_kind = static_cast<overlay::VKind>(rng.below(3));
      m.new_succ = rand_virtual_id(rng);
      m.arc = rand_arc(rng);
      fn(m);
    }
    // --- aggregation / broadcast instantiations ----------------------------
    // Up-only channels reuse one value type for Up and Down, so only the
    // Up payload may register (the Down twin would collide on the name —
    // exactly what the Aggregator's split_ gate prevents in production).
    {
      agg::AggUpMsg<kselect::KReply> m;
      m.epoch = rng.below(1u << 16);
      m.value = rand_kreply(rng);
      fn(m);
    }
    {
      agg::AggUpMsg<kselect::SampleUp> m;
      m.epoch = rng.below(1u << 16);
      m.value = kselect::SampleUp{rand_u64(rng)};
      fn(m);
    }
    {
      agg::AggDownMsg<kselect::SampleDown> m;
      m.epoch = rng.below(1u << 16);
      m.value.iv = rand_interval(rng);
      m.value.nprime = rng.below(1u << 20);
      fn(m);
    }
    {
      agg::BroadcastMsg<kselect::KStep> m;
      m.epoch = rng.below(1u << 16);
      m.value = rand_kstep(rng);
      fn(m);
    }
    {
      agg::AggUpMsg<seap::InsCountUp> m;
      m.epoch = rng.below(1u << 16);
      m.value = seap::InsCountUp{rand_u64(rng)};
      fn(m);
    }
    {
      agg::BroadcastMsg<seap::InsGo> m;
      m.epoch = rng.below(1u << 16);
      m.value = seap::InsGo{rng.below(1u << 20)};
      fn(m);
    }
    {
      agg::AggUpMsg<seap::DelCountUp> m;
      m.epoch = rng.below(1u << 16);
      m.value = seap::DelCountUp{rand_u64(rng)};
      fn(m);
    }
    {
      agg::AggDownMsg<seap::DelDown> m;
      m.epoch = rng.below(1u << 16);
      m.value.iv = rand_interval(rng);
      m.value.k_eff = rng.below(1u << 20);
      fn(m);
    }
    {
      agg::BroadcastMsg<seap::Thresh> m;
      m.epoch = rng.below(1u << 16);
      m.value.cycle = rng.below(1u << 20);
      m.value.threshold = rand_element(rng);
      m.value.k_eff = rand_u64(rng);
      fn(m);
    }
    {
      agg::AggUpMsg<seap::MoveCountUp> m;
      m.epoch = rng.below(1u << 16);
      m.value = seap::MoveCountUp{rand_u64(rng)};
      fn(m);
    }
    {
      agg::AggDownMsg<seap::MoveDown> m;
      m.epoch = rng.below(1u << 16);
      m.value = seap::MoveDown{rand_interval(rng)};
      fn(m);
    }
    {
      agg::AggUpMsg<skeap::SkeapUp> m;
      m.epoch = rng.below(1u << 16);
      m.value = skeap::SkeapUp{rand_batch(rng)};
      fn(m);
    }
    {
      const skeap::Batch batch = rand_batch(rng);
      skeap::AnchorState anchor(batch.num_priorities());
      agg::AggDownMsg<skeap::SkeapDown> m;
      m.epoch = rng.below(1u << 16);
      m.value = skeap::SkeapDown{anchor.assign(batch)};
      fn(m);
    }
    {
      agg::AggUpMsg<baselines::ProbeCount> m;
      m.epoch = rng.below(1u << 16);
      m.value = baselines::ProbeCount{rand_u64(rng)};
      fn(m);
    }
    {
      agg::BroadcastMsg<baselines::ProbeStep> m;
      m.epoch = rng.below(1u << 16);
      m.value.session = rng.below(1u << 20);
      m.value.snapshot = rng.below(2) != 0;
      m.value.pivot = rand_element(rng);
      fn(m);
    }
    // --- kselect routed payloads -------------------------------------------
    {
      kselect::SeedMsg m;
      m.session = rng.below(1u << 20);
      m.iter = static_cast<std::uint32_t>(rng.below(64));
      m.pos = rng.below(1u << 20);
      m.nprime = rng.below(1u << 20);
      m.c = rand_element(rng);
      fn(m);
    }
    {
      kselect::CopyMsg m;
      m.session = rng.below(1u << 20);
      m.iter = static_cast<std::uint32_t>(rng.below(64));
      m.i = rng.below(1u << 20);
      m.a = rng.below(1u << 20);
      m.b = rng.below(1u << 20);
      m.nprime = rng.below(1u << 20);
      m.c = rand_element(rng);
      m.parent_host = static_cast<NodeId>(rng.below(1u << 12));
      m.parent_mid = rng.below(1u << 20);
      fn(m);
    }
    {
      kselect::RdvMsg m;
      m.session = rng.below(1u << 20);
      m.iter = static_cast<std::uint32_t>(rng.below(64));
      m.i = rng.below(1u << 20);
      m.j = rng.below(1u << 20);
      m.c = rand_element(rng);
      m.back_host = static_cast<NodeId>(rng.below(1u << 12));
      fn(m);
    }
    {
      kselect::VoteMsg m;
      m.session = rng.below(1u << 20);
      m.iter = static_cast<std::uint32_t>(rng.below(64));
      m.i = rng.below(1u << 20);
      m.mid = rng.below(1u << 20);
      m.smaller = static_cast<std::uint32_t>(rng.below(1u << 16));
      m.larger = static_cast<std::uint32_t>(rng.below(1u << 16));
      fn(m);
    }
    {
      kselect::TreeSumMsg m;
      m.session = rng.below(1u << 20);
      m.iter = static_cast<std::uint32_t>(rng.below(64));
      m.i = rng.below(1u << 20);
      m.parent_mid = rng.below(1u << 20);
      m.L = rng.below(1u << 20);
      m.R = rng.below(1u << 20);
      fn(m);
    }
    {
      kselect::OrderPut m;
      m.session = rng.below(1u << 20);
      m.iter = static_cast<std::uint32_t>(rng.below(64));
      m.order = rng.below(1u << 20);
      m.c = rand_element(rng);
      fn(m);
    }
    {
      kselect::OrderGet m;
      m.session = rng.below(1u << 20);
      m.iter = static_cast<std::uint32_t>(rng.below(64));
      m.order = rng.below(1u << 20);
      m.back = static_cast<NodeId>(rng.below(1u << 12));
      m.tag = rng.below(1u << 20);
      fn(m);
    }
    {
      kselect::OrderReply m;
      m.tag = rng.below(1u << 20);
      m.c = rand_element(rng);
      fn(m);
    }
    // --- baselines ---------------------------------------------------------
    {
      baselines::CentralInsert m;
      m.element = rand_element(rng);
      fn(m);
    }
    {
      baselines::CentralDelete m;
      m.request_id = rand_u64(rng);
      fn(m);
    }
    {
      baselines::CentralReply m;
      m.request_id = rng.below(1u << 20);
      m.has_element = rng.below(2) != 0;
      if (m.has_element) m.element = rand_element(rng);
      fn(m);
    }
    {
      baselines::GossipSampleReq m;
      m.session = rng.below(1u << 20);
      fn(m);
    }
    {
      baselines::GossipSampleRep m;
      m.session = rng.below(1u << 20);
      m.alive = rng.below(2) != 0;
      m.value = rand_element(rng);
      fn(m);
    }
    {
      baselines::GossipCountReq m;
      m.session = rng.below(1u << 20);
      m.pivot = rand_element(rng);
      fn(m);
    }
    {
      baselines::GossipCountRep m;
      m.session = rng.below(1u << 20);
      m.leq = static_cast<std::uint32_t>(rng.below(2));
      m.alive = static_cast<std::uint32_t>(rng.below(2));
      fn(m);
    }
    {
      baselines::GossipPrune m;
      m.session = rng.below(1u << 20);
      m.lo = rand_element(rng);
      m.hi = rand_element(rng);
      fn(m);
    }
    {
      baselines::NoBatchOp m;
      m.is_insert = rng.below(2) != 0;
      m.prio = rand_u64(rng);
      m.origin = static_cast<NodeId>(rng.below(1u << 12));
      m.request_id = rand_u64(rng);
      m.at_kind = static_cast<overlay::VKind>(rng.below(3));
      fn(m);
    }
    {
      baselines::NoBatchGrant m;
      m.request_id = rng.below(1u << 20);
      m.bottom = rng.below(2) != 0;
      m.prio = rand_u64(rng);
      m.pos = rand_u64(rng);
      fn(m);
    }
    // --- this binary's own test payloads -----------------------------------
    fn(DupFirst{});
    fn(ThreadedPayload{});
  }
}

TEST(WireFuzz, EveryRegisteredActionRoundTripsByteExactly) {
  Rng rng(0xf0220ULL);
  std::set<sim::ActionId> covered;
  sweep_sample_payloads(rng, 24, [&](const sim::Payload& p) {
    expect_frame_roundtrip(p, &covered);
  });

  // Completeness: every action registered in this binary was fuzzed. A
  // payload type reachable from the headers above that the sweep misses
  // shows up here as an uncovered id with its name.
  const sim::ActionRegistry& reg = sim::ActionRegistry::instance();
  for (sim::ActionId id = 0; id < reg.size(); ++id) {
    EXPECT_TRUE(covered.count(id) != 0)
        << "registered action '" << reg.name(id) << "' (id " << id
        << ") was not covered by the round-trip fuzz";
  }
  EXPECT_GE(covered.size(), 40u);
}

// ---------------------------------------------------------------------------
// Truncation / corruption rejection
// ---------------------------------------------------------------------------

TEST(WireReject, TruncatedFramesNeverReproduceTheOriginal) {
  // A rich frame: routed envelope carrying a dht put (varints, fixed-width
  // fields, a recursive inner frame).
  overlay::RouteHop hop;
  hop.target = 0x0123456789abcdefULL;
  hop.d = 12;
  hop.rho = 0x5a5;
  hop.ideal = 0xfedcba9876543210ULL;
  hop.phase_a_left = 7;
  hop.phase_b_done = 3;
  hop.anchored = true;
  hop.at_kind = overlay::VKind::kRight;
  hop.origin = 5;
  hop.hops = 9;
  hop.header_bits = 44;
  auto inner = sim::make_payload<dht::PutRequest>();
  inner->element = Element{3, 12345};
  inner->requester = 2;
  inner->request_id = 77;
  inner->want_ack = true;
  inner->bits = 96;
  hop.inner = std::move(inner);

  const std::vector<std::uint8_t> full = frame_bytes(hop);
  ASSERT_GT(full.size(), 8u);
  for (std::size_t len = 0; len < full.size(); ++len) {
    wire::WireReader r(full.data(), len);
    try {
      sim::PayloadPtr p = sim::decode_frame(r);
      // A prefix that happens to parse must at least be self-consistent —
      // and it can never be mistaken for the full frame.
      const std::vector<std::uint8_t> re = frame_bytes(*p);
      EXPECT_NE(re, full) << "truncation to " << len << " bytes undetected";
    } catch (const CheckFailure&) {
      // Rejected — the expected outcome for almost every cut point.
    }
  }
}

TEST(WireReject, NonzeroPaddingIsRejected) {
  sim::ReliableAck ack;
  ack.acked_seq = 5;
  std::vector<std::uint8_t> buf;
  wire::WireWriter w(buf);
  w.gamma(ack.tag());
  w.note_frame_header_end();
  ack.encode(w);
  const std::uint64_t used = w.bit_count();
  w.finish();
  ASSERT_NE(used % 8, 0u) << "gamma tags have odd width; padding expected";
  buf.back() |= 1;  // corrupt the final padding bit
  reseal_crc(buf);  // valid trailer: the padding audit must reject alone
  wire::WireReader r(buf);
  EXPECT_THROW(sim::decode_frame(r), CheckFailure);
}

TEST(WireReject, OverlongAndNonMinimalVarintsAreRejected) {
  const auto leb_of = [](const std::vector<std::uint8_t>& bytes) {
    wire::WireReader r(bytes);
    return r.leb();
  };
  const std::vector<std::uint8_t> nine_ff(9, 0xff);
  const auto after_nine_ff = [&](std::vector<std::uint8_t> tail) {
    std::vector<std::uint8_t> bytes = nine_ff;
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    return bytes;
  };
  // The writer's extremes decode: the lone zero group and ~0, whose 10th
  // group carries bit 63 alone.
  EXPECT_EQ(leb_of({0x00}), 0u);
  EXPECT_EQ(leb_of(after_nine_ff({0x01})), ~0ull);
  // A 10th group with value bits above bit 63 (it would decode to ~0 and
  // re-encode as ff×9 01), or one continuing into an 11th group.
  EXPECT_THROW(leb_of(after_nine_ff({0x7f})), CheckFailure);
  EXPECT_THROW(leb_of(after_nine_ff({0x02})), CheckFailure);
  EXPECT_THROW(leb_of(after_nine_ff({0x81, 0x00})), CheckFailure);
  // A trailing all-zero group: a second spelling of a shorter varint.
  EXPECT_THROW(leb_of({0x80, 0x00}), CheckFailure);
  EXPECT_THROW(leb_of({0x85, 0x80, 0x00}), CheckFailure);
}

TEST(WireReject, TrailingBytesAreRejected) {
  sim::ReliableAck ack;
  ack.acked_seq = 5;
  std::vector<std::uint8_t> buf;
  wire::WireWriter w(buf);
  w.gamma(ack.tag());
  w.note_frame_header_end();
  ack.encode(w);
  w.finish();
  buf.push_back(0x00);  // a whole spare byte inside the protected region
  reseal_crc(buf);      // valid trailer: the length audit must reject alone
  wire::WireReader r(buf);
  EXPECT_THROW(sim::decode_frame(r), CheckFailure);
}

// ---------------------------------------------------------------------------
// CRC trailer + frame-decoder corruption fuzz (detect-or-reject)
// ---------------------------------------------------------------------------
// CI runs this suite together with WireFuzz under ASan/UBSan: the decoder
// must reject every mutation it can detect and must never mis-decode —
// a successful decode of mutated bytes is only acceptable when the
// mutation cancelled out and the bytes are the original frame.

TEST(WireCorruption, Crc32cMatchesTheKnownAnswerVector) {
  // The canonical CRC32C check vector (RFC 3720 appendix B.4).
  const char* s = "123456789";
  EXPECT_EQ(wire::crc32c(reinterpret_cast<const std::uint8_t*>(s), 9),
            0xE3069283u);
  EXPECT_EQ(wire::crc32c(nullptr, 0), 0u);
}

TEST(WireCorruption, TrailerRoundTripsAndRejectsEveryByteFlip) {
  std::vector<std::uint8_t> buf;
  wire::WireWriter w(buf);
  w.bits(0xdeadbeefULL, 32);
  w.bits(0x5aULL, 8);
  w.finish();
  w.append_crc32c();
  {
    wire::WireReader r(buf);
    r.verify_crc32c_trailer();
    EXPECT_EQ(r.bits(32), 0xdeadbeefULL);
    EXPECT_EQ(r.bits(8), 0x5aULL);
    r.finish();
  }
  for (std::size_t i = 0; i < buf.size(); ++i) {
    std::vector<std::uint8_t> m = buf;
    m[i] ^= 0xff;
    wire::WireReader r(m);
    EXPECT_THROW(r.verify_crc32c_trailer(), CheckFailure) << "byte " << i;
  }
}

TEST(WireCorruption, EverySingleAndDoubleBitFlipIsRejected) {
  // CRC32C has Hamming distance >= 4 at frame lengths this repo produces,
  // so 1- and 2-bit mutations are rejected *exhaustively*, not just with
  // high probability. Small frame => the full O(bits^2) sweep is cheap.
  sim::ReliableAck ack;
  ack.acked_seq = 0x5a5a;
  const std::vector<std::uint8_t> full = frame_bytes(ack);
  const std::size_t nbits = full.size() * 8;
  for (std::size_t i = 0; i < nbits; ++i) {
    std::vector<std::uint8_t> m1 = full;
    m1[i / 8] ^= static_cast<std::uint8_t>(0x80u >> (i % 8));
    {
      wire::WireReader r(m1);
      EXPECT_THROW((void)sim::decode_frame(r), CheckFailure) << "bit " << i;
    }
    for (std::size_t j = i + 1; j < nbits; ++j) {
      std::vector<std::uint8_t> m2 = m1;
      m2[j / 8] ^= static_cast<std::uint8_t>(0x80u >> (j % 8));
      wire::WireReader r(m2);
      EXPECT_THROW((void)sim::decode_frame(r), CheckFailure)
          << "bits " << i << "," << j;
    }
  }
}

TEST(WireCorruption, FewBitFlipsAreRejectedForEveryPayloadType) {
  // The Hamming-distance guarantee, spot-checked across every registered
  // payload type (including the recursive envelope frames).
  Rng rng(0xc0dec0deULL);
  sweep_sample_payloads(rng, 4, [&](const sim::Payload& p) {
    const std::vector<std::uint8_t> full = frame_bytes(p);
    const std::uint64_t nbits = full.size() * 8;
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<std::uint8_t> m = full;
      const std::uint64_t flips = 1 + rng.below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::uint64_t b = rng.below(nbits);
        m[b / 8] ^= static_cast<std::uint8_t>(0x80u >> (b % 8));
      }
      if (m == full) continue;  // flips landed on the same bit twice
      wire::WireReader r(m);
      EXPECT_THROW((void)sim::decode_frame(r), CheckFailure) << p.name();
    }
  });
}

TEST(WireCorruption, TruncationsAreRejectedForEveryPayloadType) {
  Rng rng(0x7a0bcafeULL);
  sweep_sample_payloads(rng, 1, [&](const sim::Payload& p) {
    const std::vector<std::uint8_t> full = frame_bytes(p);
    for (std::size_t len = 0; len < full.size(); ++len) {
      wire::WireReader r(full.data(), len);
      EXPECT_THROW((void)sim::decode_frame(r), CheckFailure)
          << p.name() << " truncated to " << len << " bytes";
    }
  });
}

TEST(WireCorruption, HeavyMutationsNeverMisdecode) {
  // Arbitrary cut + up to 16 bit flips per frame: the decoder must throw,
  // or — if it decodes — the bytes must be the untouched original (every
  // mutation cancelled). Anything else is a silent mis-decode.
  Rng rng(0xbadf00dULL);
  sweep_sample_payloads(rng, 2, [&](const sim::Payload& p) {
    const std::vector<std::uint8_t> full = frame_bytes(p);
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::uint8_t> m = full;
      if (rng.below(2) != 0 && !m.empty()) {
        m.resize(static_cast<std::size_t>(rng.below(m.size())));
      }
      const std::uint64_t nbits = m.size() * 8;
      const std::uint64_t flips = rng.below(17);
      for (std::uint64_t f = 0; f < flips && nbits != 0; ++f) {
        const std::uint64_t b = rng.below(nbits);
        m[b / 8] ^= static_cast<std::uint8_t>(0x80u >> (b % 8));
      }
      try {
        wire::WireReader r(m);
        sim::PayloadPtr q = sim::decode_frame(r);
        EXPECT_EQ(m, full) << p.name() << ": mutated frame decoded";
        EXPECT_EQ(frame_bytes(*q), full) << p.name();
      } catch (const CheckFailure&) {
        // Rejected — the expected outcome for every effective mutation.
      }
    }
  });
}

TEST(WireCorruption, RandomGarbageNeverDecodes) {
  // Arbitrary byte strings (the garbage-frame fault): detected with
  // probability 1 - 2^-32 per frame; deterministic seed, so this is a
  // fixed witness set, not a flaky probabilistic assertion.
  Rng rng(0x6a3ba6eULL);
  std::vector<std::uint8_t> buf;
  for (int rep = 0; rep < 2000; ++rep) {
    buf.resize(static_cast<std::size_t>(rng.below(64)));
    for (std::uint8_t& b : buf) {
      b = static_cast<std::uint8_t>(rng.below(256));
    }
    wire::WireReader r(buf.data(), buf.size());
    EXPECT_THROW((void)sim::decode_frame(r), CheckFailure) << "rep " << rep;
  }
}

// ---------------------------------------------------------------------------
// Golden byte layouts — one payload per layer
// ---------------------------------------------------------------------------

TEST(WireGolden, BodyLayoutsArePinned) {
  // common: Element = gammau(prio) ++ delta(id).
  {
    std::vector<std::uint8_t> buf;
    wire::WireWriter w(buf);
    Element{3, 7}.encode(w);
    w.finish();
    EXPECT_EQ(buf, bits_to_bytes("00100" "00100000"));
  }
  // sim (transport): ReliableAck = leb(acked_seq).
  {
    sim::ReliableAck ack;
    ack.acked_seq = 5;
    EXPECT_EQ(body_bytes(ack), bits_to_bytes("00000101"));
  }
  // dht: PutAck = delta(request_id).
  {
    dht::PutAck ack;
    ack.request_id = 9;
    EXPECT_EQ(body_bytes(ack), bits_to_bytes("00100010"));
  }
  // overlay/membership: JoinReserve = leb(joiner) ++ kind:2 ++ label:64.
  {
    overlay::JoinReserve m;
    m.joiner = 2;
    m.kind = overlay::VKind::kRight;
    m.label = std::uint64_t{1} << 63;
    std::vector<std::uint8_t> expect{0x02, 0xA0};
    expect.resize(10, 0x00);
    EXPECT_EQ(body_bytes(m), expect);
  }
  // aggregation + skeap: AggUpMsg<SkeapUp> = leb(epoch) ++ Batch (gammas).
  {
    skeap::Batch batch(2);
    batch.record_insert(1);
    batch.record_delete();
    agg::AggUpMsg<skeap::SkeapUp> m;
    m.epoch = 1;
    m.value = skeap::SkeapUp{batch};
    EXPECT_EQ(body_bytes(m),
              bits_to_bytes("00000001"        // epoch leb(1)
                            "011"             // gamma(P = 2)
                            "010"             // gamma(1 entry)
                            "010"             // gamma(inserts[1] = 1)
                            "1"               // gamma(inserts[2] = 0)
                            "010"));          // gamma(deletes = 1)
  }
  // kselect: SampleUp = delta(count).
  {
    agg::AggUpMsg<kselect::SampleUp> m;
    m.epoch = 0;
    m.value = kselect::SampleUp{5};
    EXPECT_EQ(body_bytes(m), bits_to_bytes("00000000" "01110"));
  }
  // recovery: Heartbeat has an empty body.
  EXPECT_TRUE(body_bytes(recovery::Heartbeat{}).empty());
  // baselines: CentralDelete = delta(request_id).
  {
    baselines::CentralDelete m;
    m.request_id = 0;
    EXPECT_EQ(body_bytes(m), bits_to_bytes("1"));
  }
}

}  // namespace
}  // namespace sks
