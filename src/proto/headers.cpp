#include "proto/headers.h"

namespace repro::proto {

void RpcHeader::encode(ByteWriter& w) const {
  w.u64(rpc_id);
  w.u16(pkt_id);
  w.u16(pkt_count);
  w.u8(static_cast<std::uint8_t>(msg_type));
  w.u8(flags);
  w.u16(path_id);
}

std::optional<RpcHeader> RpcHeader::decode(ByteReader& r) {
  RpcHeader h;
  h.rpc_id = r.u64();
  h.pkt_id = r.u16();
  h.pkt_count = r.u16();
  const std::uint8_t type = r.u8();
  h.flags = r.u8();
  h.path_id = r.u16();
  if (!r.ok()) return std::nullopt;
  if (type < 1 || type > 6) return std::nullopt;
  h.msg_type = static_cast<RpcMsgType>(type);
  if (h.pkt_count == 0) return std::nullopt;
  return h;
}

void EbsHeader::encode(ByteWriter& w) const {
  w.u64(vd_id);
  w.u64(segment_id);
  w.u64(lba);
  w.u32(block_len);
  w.u32(payload_crc);
  w.u8(static_cast<std::uint8_t>(op));
  w.u8(version);
  w.u16(qos_class);
}

std::optional<EbsHeader> EbsHeader::decode(ByteReader& r) {
  EbsHeader h;
  h.vd_id = r.u64();
  h.segment_id = r.u64();
  h.lba = r.u64();
  h.block_len = r.u32();
  h.payload_crc = r.u32();
  const std::uint8_t op = r.u8();
  h.version = r.u8();
  h.qos_class = r.u16();
  if (!r.ok()) return std::nullopt;
  if (op != 1 && op != 2) return std::nullopt;
  h.op = static_cast<EbsOp>(op);
  if (h.block_len > 2 * kBlockSize) return std::nullopt;
  return h;
}

void NvmeCommand::encode(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(opcode));
  w.u32(nsid);
  w.u64(slba);
  w.u16(nlb);
  w.u64(guest_addr);
  w.u16(cid);
}

std::optional<NvmeCommand> NvmeCommand::decode(ByteReader& r) {
  NvmeCommand c;
  const std::uint8_t op = r.u8();
  c.nsid = r.u32();
  c.slba = r.u64();
  c.nlb = r.u16();
  c.guest_addr = r.u64();
  c.cid = r.u16();
  if (!r.ok()) return std::nullopt;
  if (op != 0x01 && op != 0x02) return std::nullopt;
  c.opcode = static_cast<Opcode>(op);
  return c;
}

}  // namespace repro::proto
