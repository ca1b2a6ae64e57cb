#include "net/bandwidth.h"

namespace starcdn::net {

void UplinkMeter::add(util::SatId sat, util::EpochIdx epoch,
                      util::Bytes bytes) {
  if (epoch.value() != current_epoch_) {
    flush();
    current_epoch_ = epoch.value();
  }
  epoch_bytes_[sat] += bytes;
  total_ += bytes;
}

void UplinkMeter::flush() {
  for (const auto& [sat, bytes] : epoch_bytes_) {
    (void)sat;
    const double cell_gbps =
        static_cast<double>(bytes) * 8.0 / 1e9 / epoch_s_;
    stats_.add(cell_gbps);
    if (cell_gbps > capacity_gbps_) ++overloads_;
  }
  epoch_bytes_.clear();
}

}  // namespace starcdn::net
