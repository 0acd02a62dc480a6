// DPU offload tour (§4.6): one 4 KB block through the FPGA data path that
// SOLAR's client runs on every simulated I/O (dpu::FpgaPipeline).
//
// WRITE TX computes the CRC over the guest's plaintext, then encrypts (SEC).
// READ RX decrypts, then gives the hardware CRC verdict. A tampered block
// must be rejected. Ends with the FPGA resource bill (Table 3). Exits
// non-zero if any step disagrees.
#include <cstdio>

#include "common/crc32.h"
#include "dpu/fpga.h"
#include "dpu/resources.h"

using namespace repro;

int main() {
  std::printf("SOLAR's SA data path on the ALI-DPU FPGA model (§4.6)\n\n");
  dpu::FpgaPipeline fpga(dpu::FpgaParams{}, Rng(3), /*cipher_key=*/0xFEED);
  const std::uint64_t vd = 7;

  transport::DataBlock block;
  block.lba = 3 * 4096;
  block.len = 4096;
  block.data.resize(block.len);
  Rng rng(3);
  for (auto& b : block.data) b = static_cast<std::uint8_t>(rng.next());
  const auto plaintext = block.data;

  const TimeNs tx_ns = fpga.process_write_block(vd, block, /*encrypt=*/true);
  const bool crc_ok = block.crc == crc32_raw(plaintext);
  const bool encrypted = block.data != plaintext;
  std::printf("WRITE TX: %lld ns  crc=0x%08x over plaintext: %s  payload %s\n",
              static_cast<long long>(tx_ns), block.crc, crc_ok ? "yes" : "NO",
              encrypted ? "encrypted" : "PLAINTEXT (bug!)");

  transport::DataBlock tampered = block;
  tampered.data[tampered.len - 100] ^= 0x04;

  bool hw_ok = false;
  const TimeNs rx_ns =
      fpga.process_read_block(vd, block, /*decrypt=*/true, hw_ok);
  const bool intact = block.data == plaintext;
  std::printf("READ RX : %lld ns  crc verdict=%s  round trip: %s\n",
              static_cast<long long>(rx_ns), hw_ok ? "pass" : "FAIL",
              intact ? "intact" : "CORRUPT");

  bool tampered_ok = true;
  fpga.process_read_block(vd, tampered, /*decrypt=*/true, tampered_ok);
  std::printf("TAMPERED: accepted=%s\n", tampered_ok ? "yes (bug!)" : "no");

  std::printf("\nFPGA bill for this data path (Table 3 cost model):\n");
  for (const auto& m : dpu::solar_resource_usage(dpu::SolarHwConfig{})) {
    std::printf("  %-6s %6.1f%% LUT  %6.1f%% BRAM\n", m.name.c_str(),
                m.lut_pct, m.bram_pct);
  }
  return crc_ok && encrypted && hw_ok && intact && !tampered_ok ? 0 : 1;
}
