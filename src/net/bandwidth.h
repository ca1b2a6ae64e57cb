// Ground-satellite uplink bandwidth accounting.
//
// Table 1 gives each GSL a 20 Gbps budget — the scarce resource StarCDN
// exists to protect. This meter tracks, per scheduler epoch, how many bytes
// each satellite pulled from the ground, and folds them into throughput
// statistics: mean/peak per-satellite uplink rate and the number of
// (satellite, epoch) cells that would have exceeded the link budget.
// Requests must be fed in non-decreasing epoch order (the simulator's
// natural replay order). After warm-up neither add() nor flush() allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.h"
#include "util/stats.h"
#include "util/units.h"

namespace starcdn::net {

class UplinkMeter {
 public:
  explicit UplinkMeter(
      util::Seconds epoch_duration = util::Seconds{15.0},
      util::BytesPerSec link_capacity = util::gbps(20.0)) noexcept
      : epoch_s_(epoch_duration.value()),
        capacity_gbps_(util::to_gbps(link_capacity)) {}

  /// Record an origin fetch of `bytes` through `sat`'s GSL; a zero-byte
  /// fetch opens no cell.
  void add(util::SatId sat, util::EpochIdx epoch, util::Bytes bytes);

  /// Fold any still-buffered epoch into the statistics.
  void flush();

  /// Per-(satellite, epoch) uplink throughput in Gbps, over cells with any
  /// uplink traffic. Call flush() first. (RunningStats is a raw moment
  /// sink; its samples are Gbps to match the paper's tables.)
  [[nodiscard]] const util::RunningStats& throughput_gbps() const noexcept {
    return stats_;
  }

  /// Cells whose required throughput exceeded the GSL budget.
  [[nodiscard]] std::uint64_t overloaded_cells() const noexcept {
    return overloads_;
  }
  [[nodiscard]] util::Bytes total_bytes() const noexcept { return total_; }
  [[nodiscard]] util::BytesPerSec capacity() const noexcept {
    return util::gbps(capacity_gbps_);
  }

 private:
  double epoch_s_;
  double capacity_gbps_;
  std::size_t current_epoch_ = 0;
  std::vector<util::Bytes> epoch_bytes_;  // per slot, grown on demand
  std::vector<util::SatId> touched_;      // slots with bytes, first touch
  util::RunningStats stats_;
  std::uint64_t overloads_ = 0;
  util::Bytes total_ = 0;
};

}  // namespace starcdn::net
