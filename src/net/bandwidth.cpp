#include "net/bandwidth.h"

namespace starcdn::net {

void UplinkMeter::add(util::SatId sat, util::EpochIdx epoch,
                      util::Bytes bytes) {
  if (epoch.value() != current_epoch_) {
    flush();
    current_epoch_ = epoch.value();
  }
  const auto i = util::as_index(sat);
  if (i >= epoch_bytes_.size()) epoch_bytes_.resize(i + 1, 0);
  if (epoch_bytes_[i] == 0) touched_.push_back(sat);
  epoch_bytes_[i] += bytes;
  total_ += bytes;
}

void UplinkMeter::flush() {
  for (const util::SatId sat : touched_) {
    util::Bytes& bytes = epoch_bytes_[util::as_index(sat)];
    const double cell_gbps =
        static_cast<double>(bytes) * 8.0 / 1e9 / epoch_s_;
    stats_.add(cell_gbps);
    if (cell_gbps > capacity_gbps_) ++overloads_;
    bytes = 0;
  }
  touched_.clear();
}

}  // namespace starcdn::net
