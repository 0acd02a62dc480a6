#include "chaos/oracle.h"

#include <algorithm>

#include "common/crc32.h"

namespace repro::chaos {

using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

void OracleBoard::add_violation(std::string oracle, std::string detail,
                                TimeNs at) {
  violations_.push_back({std::move(oracle), std::move(detail), at});
}

std::uint64_t OracleBoard::on_submit(const IoRequest& io, TimeNs now) {
  const std::uint64_t id = next_id_++;
  PendingIo p;
  p.op = io.op;
  p.issued_at = now;
  p.vd_id = io.vd_id;
  if (io.op == OpType::kWrite) {
    for (const transport::DataBlock& blk : io.payload) {
      if (!blk.has_payload()) continue;
      p.lbas.push_back(blk.lba);
      // Shadow CRC captured at submit and compared at completion/read-back.
      // These feed run signatures, so they lean on the src/kernels guarantee
      // that every dispatch tier computes bit-identical CRCs.
      p.crcs.push_back(crc32_raw(blk.data));
      ShadowCell& cell = shadow_[CellKey{io.vd_id, blk.lba}];
      if (++cell.writers_inflight > 1) {
        // Two writes racing for one cell: the committed contents depend on
        // arrival order deep in the stack; stop judging this cell.
        cell.tainted = true;
      }
    }
  } else {
    for (std::uint64_t off = io.offset; off < io.offset + io.len;
         off += 4096) {
      auto it = shadow_.find(CellKey{io.vd_id, off});
      p.lbas.push_back(off);
      // UINT64_MAX = "not judgeable at submit time"; a cell committed
      // *after* this read was issued must not be held against the read.
      p.epochs.push_back(it != shadow_.end() && it->second.committed &&
                                 !it->second.tainted
                             ? it->second.epoch
                             : UINT64_MAX);
    }
  }
  outstanding_.emplace(id, std::move(p));
  return id;
}

void OracleBoard::on_complete(std::uint64_t id, const IoResult& res,
                              TimeNs now) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    add_violation("exactly_once",
                  finished_.contains(id)
                      ? "duplicate completion for io " + std::to_string(id)
                      : "completion for unknown io " + std::to_string(id),
                  now);
    return;
  }
  PendingIo p = std::move(it->second);
  outstanding_.erase(it);
  finished_.emplace(id, true);
  ++completed_;
  if (res.status != StorageStatus::kOk) ++errors_;

  const TimeNs latency = now - p.issued_at;
  if (latency >= cfg_.hang_threshold) {
    ++hangs_;
    if (cfg_.hang_oracle) {
      add_violation("hang",
                    "io " + std::to_string(id) + " took " +
                        std::to_string(latency / 1000000) + " ms",
                    now);
    }
  }
  if (repair_time_ > 0 && now > repair_time_ + cfg_.recovery_slo) {
    add_violation("slo",
                  "io " + std::to_string(id) + " completed " +
                      std::to_string((now - repair_time_) / 1000000) +
                      " ms after the last repair (slo " +
                      std::to_string(cfg_.recovery_slo / 1000000) + " ms)",
                  now);
  }

  if (p.op == OpType::kWrite) {
    const bool ok = res.status == StorageStatus::kOk;
    for (std::size_t i = 0; i < p.lbas.size(); ++i) {
      ShadowCell& cell = shadow_[CellKey{p.vd_id, p.lbas[i]}];
      --cell.writers_inflight;
      ++cell.epoch;
      if (!ok) {
        // A failed write may have landed on some replicas: contents are
        // ambiguous from here on.
        cell.tainted = true;
      } else if (!cell.tainted) {
        cell.crc = p.crcs[i];
        cell.committed = true;
      }
    }
  } else if (cfg_.check_crc && res.status == StorageStatus::kOk) {
    for (const transport::DataBlock& blk : res.read_data) {
      if (!blk.has_payload()) continue;
      // Match the returned block to the epoch captured at submit.
      auto pos = std::find(p.lbas.begin(), p.lbas.end(), blk.lba);
      if (pos == p.lbas.end()) continue;
      const std::uint64_t want_epoch =
          p.epochs[static_cast<std::size_t>(pos - p.lbas.begin())];
      if (want_epoch == UINT64_MAX) continue;
      auto cit = shadow_.find(CellKey{p.vd_id, blk.lba});
      if (cit == shadow_.end() || cit->second.tainted ||
          cit->second.epoch != want_epoch) {
        continue;  // a write raced this read; not judgeable
      }
      ++crc_checks_;
      if (crc32_raw(blk.data) != cit->second.crc) {
        add_violation("durability",
                      "read of vd " + std::to_string(p.vd_id) + " lba " +
                          std::to_string(blk.lba) +
                          " returned data whose CRC differs from the acked "
                          "write",
                      now);
      }
    }
  }
}

void OracleBoard::check_outstanding(TimeNs now, TimeNs last_repair) {
  if (outstanding_.empty()) return;
  // Sorted report so violation text is deterministic.
  std::vector<std::uint64_t> ids;
  ids.reserve(outstanding_.size());
  for (const auto& [id, p] : outstanding_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (std::uint64_t id : ids) {
    const PendingIo& p = outstanding_.at(id);
    if (last_repair > 0 && now >= last_repair + cfg_.recovery_slo) {
      add_violation(
          "slo",
          "io " + std::to_string(id) + " (issued at " +
              std::to_string(p.issued_at / 1000000) +
              " ms) still outstanding " +
              std::to_string((now - last_repair) / 1000000) +
              " ms after the last repair",
          now);
    } else {
      add_violation("exactly_once",
                    "io " + std::to_string(id) + " never completed", now);
    }
  }
}

std::vector<OracleBoard::StableCell> OracleBoard::stable_cells(
    std::size_t max) const {
  std::vector<StableCell> cells;
  for (const auto& [key, cell] : shadow_) {
    if (!cell.committed || cell.tainted || cell.writers_inflight != 0)
      continue;
    cells.push_back({key.vd_id, key.lba, cell.crc});
  }
  // The shadow map's iteration order is not part of the determinism
  // contract; sort so replays probe identical cells.
  std::sort(cells.begin(), cells.end(),
            [](const StableCell& a, const StableCell& b) {
              return a.vd_id != b.vd_id ? a.vd_id < b.vd_id : a.lba < b.lba;
            });
  if (cells.size() > max) cells.resize(max);
  return cells;
}

void OracleBoard::check_readback(const StableCell& cell, const IoResult& res,
                                 TimeNs now) {
  if (res.status != StorageStatus::kOk) {
    add_violation("durability",
                  "read-back of vd " + std::to_string(cell.vd_id) + " lba " +
                      std::to_string(cell.lba) + " failed with status " +
                      std::to_string(static_cast<int>(res.status)),
                  now);
    return;
  }
  for (const transport::DataBlock& blk : res.read_data) {
    if (blk.lba != cell.lba) continue;
    if (!blk.has_payload()) break;
    ++crc_checks_;
    if (crc32_raw(blk.data) != cell.crc) {
      add_violation("durability",
                    "read-back of vd " + std::to_string(cell.vd_id) +
                        " lba " + std::to_string(cell.lba) +
                        " returned different bytes than the acked write",
                    now);
    }
    return;
  }
  add_violation("durability",
                "read-back of vd " + std::to_string(cell.vd_id) + " lba " +
                    std::to_string(cell.lba) + " returned no payload",
                now);
}

}  // namespace repro::chaos
