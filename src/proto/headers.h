// SOLAR's on-wire headers (Figures 12 & 13) and the NVMe command that
// enters the DPU from the guest.
//
// A SOLAR packet is: [UDP (modelled by the fabric's FlowKey; the source
// port is the path id)] [RPC HDR] [EBS HDR] [payload = exactly one 4 KB
// data block] — the "one-block-one-packet" fusion. READ/WRITE requests,
// per-packet ACKs, and path probes reuse the same RPC header with empty or
// partial EBS sections.
#pragma once

#include <cstdint>
#include <optional>

#include "proto/wire.h"

namespace repro::proto {

/// EBS data blocks are 4 KB to match the SSD sector size (§2.2) and fit a
/// jumbo frame with headers (§4.4 uses 4 KB rather than 8 KB, §4.8).
inline constexpr std::uint32_t kBlockSize = 4096;

enum class RpcMsgType : std::uint8_t {
  kWriteRequest = 1,   ///< carries one data block
  kWriteResponse = 2,  ///< per-RPC completion from the block server
  kReadRequest = 3,    ///< asks for blocks; no payload
  kReadResponse = 4,   ///< carries one data block
  kAck = 5,            ///< per-packet transport ACK (CC + loss detection)
  kProbe = 6,          ///< path liveness/RTT probe
};

struct RpcHeader {
  std::uint64_t rpc_id = 0;
  std::uint16_t pkt_id = 0;     ///< block index within the RPC
  std::uint16_t pkt_count = 1;  ///< total blocks in the RPC
  RpcMsgType msg_type = RpcMsgType::kWriteRequest;
  std::uint8_t flags = 0;
  std::uint16_t path_id = 0;  ///< echo of the UDP source port / path

  static constexpr std::size_t kWireSize = 8 + 2 + 2 + 1 + 1 + 2;

  bool operator==(const RpcHeader&) const = default;

  void encode(ByteWriter& w) const;
  static std::optional<RpcHeader> decode(ByteReader& r);
};

enum class EbsOp : std::uint8_t { kWrite = 1, kRead = 2 };

struct EbsHeader {
  std::uint64_t vd_id = 0;       ///< virtual disk
  std::uint64_t segment_id = 0;  ///< physical segment on the block server
  std::uint64_t lba = 0;         ///< byte offset of the block within the VD
  std::uint32_t block_len = kBlockSize;
  std::uint32_t payload_crc = 0;  ///< crc32_raw of the data block
  EbsOp op = EbsOp::kWrite;
  std::uint8_t version = 1;
  std::uint16_t qos_class = 0;

  static constexpr std::size_t kWireSize = 8 * 3 + 4 + 4 + 1 + 1 + 2;

  bool operator==(const EbsHeader&) const = default;

  void encode(ByteWriter& w) const;
  static std::optional<EbsHeader> decode(ByteReader& r);
};

/// Guest-side NVMe command as it arrives at the DPU (Figure 12, step 1).
struct NvmeCommand {
  enum class Opcode : std::uint8_t { kRead = 0x02, kWrite = 0x01 };
  Opcode opcode = Opcode::kWrite;
  std::uint32_t nsid = 0;        ///< namespace == virtual disk id
  std::uint64_t slba = 0;        ///< starting LBA (in 512B sectors)
  std::uint16_t nlb = 0;         ///< number of logical blocks (0-based)
  std::uint64_t guest_addr = 0;  ///< PRP: guest memory address
  std::uint16_t cid = 0;         ///< command id

  static constexpr std::size_t kWireSize = 1 + 4 + 8 + 2 + 8 + 2;

  bool operator==(const NvmeCommand&) const = default;

  void encode(ByteWriter& w) const;
  static std::optional<NvmeCommand> decode(ByteReader& r);

  std::uint64_t byte_offset() const { return slba * 512; }
  std::uint32_t byte_len() const {
    return (static_cast<std::uint32_t>(nlb) + 1) * 512;
  }
};

}  // namespace repro::proto
