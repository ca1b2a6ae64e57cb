// One evaluation scenario (§5.1, §5.4): a workload over a city set, a Walker
// shell with optionally a fraction of its slots knocked out, and the link
// schedule over the workload's horizon. build() is the one place these are
// assembled, so every bench, example and test replays the same recipe and
// differs only in field values.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "orbit/constellation.h"
#include "sched/scheduler.h"
#include "trace/workload.h"
#include "util/geo.h"

namespace starcdn::core {

struct Scenario {
  /// Must outlive the built model, which keeps a pointer to it.
  const std::vector<util::City>* cities = &util::paper_cities();
  trace::WorkloadParams workload =
      trace::default_params(trace::TrafficClass::kVideo);
  orbit::WalkerParams shell;
  sched::SchedulerParams scheduler;
  /// Fraction of slots knocked out at random (the paper measured 9.7%,
  /// §5.4); 0 keeps every slot. NaN or infinity makes build() throw.
  double fail_fraction = 0.0;
  /// Seeds the knock-out draw (util::Rng(failure_seed)).
  std::uint64_t failure_seed = 0;

  /// The assembled scenario. Simulators built over it point into the shell
  /// and the schedule. Each piece lives on the heap, so moving a Built keeps
  /// those pointers valid, and members are destroyed in reverse order, so
  /// the schedule goes before the shell it was built from.
  struct Built {
    std::unique_ptr<const trace::WorkloadModel> model;
    std::unique_ptr<const orbit::Constellation> shell;
    std::unique_ptr<const sched::LinkSchedule> schedule;
  };

  /// Builds the model, then the shell with fail_fraction of its slots
  /// knocked out, then the schedule over workload.duration_s.
  [[nodiscard]] Built build() const;
};

}  // namespace starcdn::core
