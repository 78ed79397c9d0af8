// X-RDMA message framing.
//
// Every message travels as one RDMA SEND whose payload begins with a
// WireHeader. Small messages (§IV-C) inline their payload after the
// header; large messages carry a rendezvous descriptor (source address /
// rkey / length) instead, and the receiver pulls the payload with
// fragmented RDMA Reads — the receiver-driven counterpart of the paper's
// buffer-preparation phase, and the same mechanism that implements
// Read-replace-Write for RPC responses.
//
// In req-rsp (tracing) mode a trace block rides in the header; bare-data
// mode skips those bytes, which is the 2-4% overhead gap of §VII-A.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"
#include "common/enum_names.hpp"
#include "common/time.hpp"

namespace xrdma::core {

enum MsgFlags : std::uint16_t {
  kFlagLarge = 1 << 0,     // rendezvous descriptor, not inline payload
  kFlagRpcReq = 1 << 1,
  kFlagRpcRsp = 1 << 2,
  kFlagAckOnly = 1 << 3,   // standalone ACK (windowless)
  kFlagNop = 1 << 4,       // deadlock-break NOP (windowless)
  kFlagFin = 1 << 5,       // graceful close
  kFlagTraced = 1 << 6,    // trace block present and valid
  kFlagNak = 1 << 7,       // receiver shed a rendezvous pull (windowless);
                           // rpc_id carries the NAK'd seq, rv_addr the
                           // retry-after hint in ns
  kFlagDrain = 1 << 8,     // sender is draining (windowless); rv_addr
                           // carries the retry-after hint in ns
  kFlagIntegrityNak = 1 << 9,  // receiver dropped a frame on CRC mismatch
                               // (windowless); rpc_id carries the seq whose
                               // frame failed verification
};

/// CM-negotiated feature bits: each side advertises what it understands in
/// the handshake private data; a channel's effective set is the AND of both
/// ends, so a feature is only used when both builds speak it.
enum ProtoFeatures : std::uint32_t {
  kFeatDrain = 1u << 0,   // understands DRAIN announcements (kFlagDrain)
  kFeatHdrTlv = 1u << 1,  // reads the wire-v2 header TLV area
  kFeatE2eCrc = 1u << 2,  // stamps + verifies the CRC32C TLV (kTlvCrc32c)
};

/// Why decode() refused a buffer. Distinguishable so triage can name a
/// version-skew kill instead of folding it into generic corruption.
#define XRDMA_HDR_DECODES(X)                                                  \
  X(ok, "ok")                                                                 \
  X(too_short, "too_short")                                                   \
  X(bad_magic, "bad_magic")                                                   \
  X(bad_version, "bad_version") /* outside [kVersionMin, kVersionMax] */

enum class HdrDecode : std::uint8_t { XRDMA_HDR_DECODES(XRDMA_ENUM_ID) };
inline constexpr auto kHdrDecodeNames =
    enum_names<HdrDecode>({XRDMA_HDR_DECODES(XRDMA_ENUM_NAME)});

struct WireHeader {
  static constexpr std::uint32_t kMagic = 0x58524d41;  // "XRMA"
  static constexpr std::uint32_t kBareSize = 64;
  static constexpr std::uint32_t kTraceSize = 32;
  // Protocol versions this build speaks. v1 is the original fixed header;
  // v2 adds the TLV area in the bare header's pad bytes. The effective
  // version of a channel is negotiated at CM handshake time (Context), so
  // a conforming peer never sends a version outside our range.
  static constexpr std::uint16_t kVersionMin = 1;
  static constexpr std::uint16_t kVersionMax = 2;
  // TLV area (version >= 2): rides in the bare header's pad bytes
  // [kTlvOffset, kBareSize). Layout: u8 entry count, then per entry
  // {u8 type, u8 len, len payload bytes}. Unknown types are skipped via
  // their length (counted in tlv_skipped) — the rule that lets an upgraded
  // node add header fields old peers safely ignore. v1 decoders never read
  // the pad bytes at all, which is the same rule one version further back.
  static constexpr std::uint32_t kTlvOffset = 52;
  static constexpr std::uint8_t kTlvRetryAfterUs = 1;  // u32 payload
  // End-to-end integrity TLV (kFeatE2eCrc): {u32 hdr_crc, u32 payload_crc}.
  // hdr_crc is CRC32C over the whole wire header (wire_size() bytes) with
  // these four hdr_crc bytes zeroed — verified on arrival for every frame,
  // including rendezvous descriptors, so a corrupted rv_addr/payload_len can
  // never drive a pull. payload_crc covers the message payload end to end
  // (whole message, not per fragment); eager receivers verify it against the
  // landed bytes, rendezvous receivers after the RDMA Read pull completes.
  // payload_crc == 0 with payload_len != 0 means "payload not covered"
  // (synthetic pattern buffers) — header integrity still applies.
  // The CRC TLV consumes 11 of the 12 pad bytes, so it is mutually
  // exclusive with the retry-after TLV; CRC-negotiated channels carry the
  // retry hint in rv_addr (as NAK/DRAIN frames already do).
  static constexpr std::uint8_t kTlvCrc32c = 2;  // u32 hdr_crc, u32 payload_crc
  // Fixed frame offset of the hdr_crc bytes when this build emits the CRC
  // TLV first (count, type, len precede it). Decoders use the offset found
  // by the TLV walk instead (crc_off), staying robust to reordered TLVs.
  static constexpr std::uint32_t kCrcFieldOffset = kTlvOffset + 3;

  std::uint16_t version = 1;
  std::uint16_t flags = 0;
  std::uint32_t payload_len = 0;  // inline bytes, or total length if kFlagLarge
  std::uint64_t seq = 0;          // valid for windowed (data) messages
  std::uint64_t ack = 0;          // piggybacked cumulative ack (always valid)
  std::uint64_t rpc_id = 0;
  // Rendezvous source descriptor (kFlagLarge).
  std::uint64_t rv_addr = 0;
  std::uint32_t rv_rkey = 0;
  // Remaining RPC deadline budget in microseconds at emit time (kFlagRpcReq;
  // 0 = no deadline). Relative, not absolute: host clocks are not
  // synchronized, so the receiver rebases it onto its own clock.
  std::uint32_t budget_us = 0;
  // Trace block (kFlagTraced).
  std::int64_t t_send = 0;    // sender clock at send_msg time
  std::uint64_t trace_id = 0;
  // TLV sidecar (version >= 2). On encode: a retry_after_us != 0 emits the
  // retry-after TLV. On decode: populated from recognized TLVs;
  // tlv_skipped counts unknown entries that were skipped by length.
  std::uint32_t retry_after_us = 0;
  std::uint16_t tlv_skipped = 0;
  // Integrity TLV (kTlvCrc32c). On encode: crc_present emits the TLV with
  // hdr_crc as written (senders leave 0 and patch via stamp_crc after
  // encode) and payload_crc as the whole-message payload checksum. On
  // decode: populated from the TLV; crc_off records where in the frame the
  // hdr_crc bytes landed so verify_hdr_crc can zero exactly those.
  bool crc_present = false;
  std::uint32_t hdr_crc = 0;
  std::uint32_t payload_crc = 0;
  std::uint8_t crc_off = 0;

  bool is_data() const {
    return (flags & (kFlagAckOnly | kFlagNop | kFlagNak | kFlagDrain |
                     kFlagIntegrityNak)) == 0;
  }
  bool has(MsgFlags f) const { return (flags & f) != 0; }

  std::uint32_t wire_size() const {
    return kBareSize + (has(kFlagTraced) ? kTraceSize : 0);
  }

  /// Serializes into `dst` (must hold wire_size() bytes). version <= 1
  /// zero-pads the TLV area (the legacy form, bit-identical to old builds).
  void encode(std::uint8_t* dst) const;
  /// Returns false on bad magic/version/length.
  static bool decode(const std::uint8_t* src, std::uint32_t len,
                     WireHeader& out) {
    return decode_ex(src, len, out) == HdrDecode::ok;
  }
  /// decode() with a distinguishable reject reason.
  static HdrDecode decode_ex(const std::uint8_t* src, std::uint32_t len,
                             WireHeader& out);

  /// Patches hdr_crc into an already-encoded frame: computes CRC32C over
  /// the wire_size() header bytes (encode() left the hdr_crc field zero)
  /// and writes it at kCrcFieldOffset. Call after encode() whenever
  /// crc_present was set.
  void stamp_crc(std::uint8_t* dst) const;

  /// Recomputes the header CRC of a received frame (zeroing the 4 bytes at
  /// out.crc_off) and compares against out.hdr_crc. `len` is the full frame
  /// length; only wire_size() header bytes are covered.
  static bool verify_hdr_crc(const std::uint8_t* src, std::uint32_t len,
                             const WireHeader& out);
};

/// A received message as handed to the application.
struct Msg {
  Buffer payload;
  std::uint64_t seq = 0;
  std::uint64_t rpc_id = 0;
  bool is_rpc_req = false;
  bool is_rpc_rsp = false;
  bool traced = false;
  Nanos t_send = 0;      // sender's stamp (traced messages)
  Nanos t_deliver = 0;   // local delivery time
  std::uint64_t trace_id = 0;
  // Deadline propagation (RPC requests carrying a budget): how much of the
  // caller's deadline remains at delivery, after wire + queue time.
  bool has_deadline = false;
  Nanos deadline_left = 0;
};

}  // namespace xrdma::core
