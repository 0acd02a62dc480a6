#include <gtest/gtest.h>

#include "proto/headers.h"
#include "proto/wire.h"

namespace repro::proto {
namespace {

TEST(ByteWriterReader, RoundTripsScalars) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteWriterReader, LittleEndianOnTheWire) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u32(0x04030201u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 4);
}

TEST(ByteWriterReader, UnderflowPoisonsReader) {
  std::vector<std::uint8_t> buf{1, 2};
  ByteReader r(buf);
  r.u32();
  EXPECT_FALSE(r.ok());
  // Further reads stay poisoned and return zero.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(ByteWriterReader, BytesAndView) {
  std::vector<std::uint8_t> buf{10, 20, 30, 40};
  ByteReader r(buf);
  auto head = r.bytes(2);
  EXPECT_EQ(head, (std::vector<std::uint8_t>{10, 20}));
  auto tail = r.view(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0], 30);
  EXPECT_TRUE(r.ok());
  auto over = r.bytes(1);
  EXPECT_TRUE(over.empty());
  EXPECT_FALSE(r.ok());
}

TEST(RpcHeader, EncodeDecodeRoundTrip) {
  RpcHeader h;
  h.rpc_id = 0xABCDEF0123456789ull;
  h.pkt_id = 3;
  h.pkt_count = 16;
  h.msg_type = RpcMsgType::kReadResponse;
  h.flags = 0x5;
  h.path_id = 4711;

  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.encode(w);
  EXPECT_EQ(buf.size(), RpcHeader::kWireSize);

  ByteReader r(buf);
  auto back = RpcHeader::decode(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(RpcHeader, RejectsBadMsgTypeAndZeroCount) {
  RpcHeader h;
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.encode(w);
  buf[12] = 99;  // msg_type byte
  ByteReader r1(buf);
  EXPECT_FALSE(RpcHeader::decode(r1).has_value());

  buf[12] = 1;
  buf[10] = 0;  // pkt_count low byte
  buf[11] = 0;
  ByteReader r2(buf);
  EXPECT_FALSE(RpcHeader::decode(r2).has_value());
}

TEST(EbsHeader, EncodeDecodeRoundTrip) {
  EbsHeader h;
  h.vd_id = 42;
  h.segment_id = 1001;
  h.lba = 0x0F000;
  h.block_len = kBlockSize;
  h.payload_crc = 0xCAFEBABE;
  h.op = EbsOp::kRead;
  h.version = 7;
  h.qos_class = 2;

  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.encode(w);
  EXPECT_EQ(buf.size(), EbsHeader::kWireSize);

  ByteReader r(buf);
  auto back = EbsHeader::decode(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(EbsHeader, RejectsOversizedBlockAndBadOp) {
  EbsHeader h;
  h.block_len = 64 * 1024;  // way past jumbo payload
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.encode(w);
  ByteReader r(buf);
  EXPECT_FALSE(EbsHeader::decode(r).has_value());

  buf.clear();
  h.block_len = kBlockSize;
  ByteWriter w2(buf);
  h.encode(w2);
  buf[32] = 0;  // op byte
  ByteReader r2(buf);
  EXPECT_FALSE(EbsHeader::decode(r2).has_value());
}

TEST(NvmeCommand, EncodeDecodeRoundTripAndByteMath) {
  NvmeCommand c;
  c.opcode = NvmeCommand::Opcode::kWrite;
  c.nsid = 9;
  c.slba = 256;        // 128 KiB offset
  c.nlb = 7;           // 8 sectors = 4 KiB
  c.guest_addr = 0xFFEE0000;
  c.cid = 77;

  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  c.encode(w);
  EXPECT_EQ(buf.size(), NvmeCommand::kWireSize);
  ByteReader r(buf);
  auto back = NvmeCommand::decode(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, c);
  EXPECT_EQ(c.byte_offset(), 256u * 512);
  EXPECT_EQ(c.byte_len(), 4096u);
}

}  // namespace
}  // namespace repro::proto
