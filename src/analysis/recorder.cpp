#include "analysis/recorder.hpp"

#include <cstdio>
#include <cstring>

#include "analysis/metrics.hpp"
#include "core/context.hpp"

namespace xrdma::analysis {

namespace {

std::size_t round_pow2(std::uint32_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::uint32_t capacity)
    : ring_(round_pow2(capacity == 0 ? 1 : capacity)),
      mask_(ring_.size() - 1) {}

std::size_t FlightRecorder::size() const {
  return head_ < ring_.size() ? static_cast<std::size_t>(head_) : ring_.size();
}

std::vector<Rec> FlightRecorder::records() const {
  std::vector<Rec> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = head_ - n;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(first + i) & mask_]);
  }
  return out;
}

std::string Dump::event_name(std::uint16_t type) const {
  for (const auto& [id, name] : event_names) {
    if (id == type) return name;
  }
  return kRecEventNames.name(type);
}

// --- .xrd encoding -------------------------------------------------------
//
// Little-endian, length-prefixed, no padding:
//   magic "XRD1" | u32 version | u32 node | i64 dumped_at
//   u16 reason_len | reason bytes
//   u32 name_count | { u16 id, u16 len, bytes } * name_count
//   u32 rec_count  | { i64 t, u16 type, u16 code, u32 chan, u64 a, u64 b } *
//   u32 metric_count | { u16 len, bytes, u64 value_bits } * metric_count
// Every field is emitted explicitly (no struct memcpy), so the bytes are a
// pure function of the Dump contents — the determinism oracle depends on it.

namespace {

void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_str(std::vector<std::uint8_t>& b, const std::string& s) {
  const std::uint16_t n =
      static_cast<std::uint16_t>(s.size() > 0xffff ? 0xffff : s.size());
  put_u16(b, n);
  b.insert(b.end(), s.begin(), s.begin() + n);
}

struct Cursor {
  const std::uint8_t* p;
  std::size_t left;

  bool u16(std::uint16_t& v) {
    if (left < 2) return false;
    v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    p += 2;
    left -= 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (left < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (left < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return true;
  }
  bool str(std::string& s) {
    std::uint16_t n = 0;
    if (!u16(n) || left < n) return false;
    s.assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
};

constexpr char kMagic[4] = {'X', 'R', 'D', '1'};

}  // namespace

std::vector<std::uint8_t> encode_xrd(const Dump& dump) {
  std::vector<std::uint8_t> b;
  b.reserve(64 + dump.records.size() * sizeof(Rec));
  b.insert(b.end(), kMagic, kMagic + 4);
  put_u32(b, dump.version);
  put_u32(b, dump.node);
  put_u64(b, static_cast<std::uint64_t>(dump.dumped_at));
  put_str(b, dump.reason);

  // Self-description: the full event vocabulary of the writing build.
  put_u32(b, static_cast<std::uint32_t>(kRecEventNames.size));
  for (std::uint16_t id = 0; id < kRecEventNames.size; ++id) {
    put_u16(b, id);
    put_str(b, kRecEventNames.names[id]);
  }

  put_u32(b, static_cast<std::uint32_t>(dump.records.size()));
  for (const Rec& r : dump.records) {
    put_u64(b, static_cast<std::uint64_t>(r.t));
    put_u16(b, r.type);
    put_u16(b, r.code);
    put_u32(b, r.chan);
    put_u64(b, r.a);
    put_u64(b, r.b);
  }

  put_u32(b, static_cast<std::uint32_t>(dump.metrics.size()));
  for (const auto& [name, value] : dump.metrics) {
    put_str(b, name);
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    put_u64(b, bits);
  }
  return b;
}

bool decode_xrd(const std::uint8_t* data, std::size_t len, Dump& out) {
  Cursor c{data, len};
  if (c.left < 4 || std::memcmp(c.p, kMagic, 4) != 0) return false;
  c.p += 4;
  c.left -= 4;
  out = Dump{};
  std::uint64_t t = 0;
  if (!c.u32(out.version) || !c.u32(out.node) || !c.u64(t)) return false;
  out.dumped_at = static_cast<Nanos>(t);
  if (!c.str(out.reason)) return false;

  std::uint32_t names = 0;
  if (!c.u32(names)) return false;
  out.event_names.reserve(names);
  for (std::uint32_t i = 0; i < names; ++i) {
    std::uint16_t id = 0;
    std::string name;
    if (!c.u16(id) || !c.str(name)) return false;
    out.event_names.emplace_back(id, std::move(name));
  }

  std::uint32_t recs = 0;
  if (!c.u32(recs)) return false;
  out.records.reserve(recs);
  for (std::uint32_t i = 0; i < recs; ++i) {
    Rec r;
    std::uint64_t rt = 0;
    if (!c.u64(rt) || !c.u16(r.type) || !c.u16(r.code) || !c.u32(r.chan) ||
        !c.u64(r.a) || !c.u64(r.b)) {
      return false;
    }
    r.t = static_cast<Nanos>(rt);
    out.records.push_back(r);
  }

  std::uint32_t metrics = 0;
  if (!c.u32(metrics)) return false;
  out.metrics.reserve(metrics);
  for (std::uint32_t i = 0; i < metrics; ++i) {
    std::string name;
    std::uint64_t bits = 0;
    if (!c.str(name) || !c.u64(bits)) return false;
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    out.metrics.emplace_back(std::move(name), value);
  }
  return true;
}

bool write_xrd_file(const std::string& path, const Dump& dump) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::vector<std::uint8_t> bytes = encode_xrd(dump);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  return ok;
}

bool decode_xrd_file(const std::string& path, Dump& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return decode_xrd(bytes.data(), bytes.size(), out);
}

Dump snapshot_dump(core::Context& ctx, const std::string& reason) {
  Dump d;
  d.node = ctx.node();
  d.dumped_at = ctx.engine().now();
  d.reason = reason;
  d.records = ctx.recorder().records();
  ContextMetrics cm(ctx);
  const MetricsRegistry::Snapshot snap = cm.registry().snapshot();
  d.metrics.assign(snap.values.begin(), snap.values.end());
  return d;
}

}  // namespace xrdma::analysis
