#include "core/scenario.h"

#include "util/rng.h"
#include "util/units.h"

namespace starcdn::core {

Scenario::Built Scenario::build() const {
  Built b;
  b.model = std::make_unique<const trace::WorkloadModel>(*cities, workload);
  auto shell_built = std::make_unique<orbit::Constellation>(shell);
  util::Rng rng(failure_seed);
  shell_built->knock_out_random(fail_fraction, rng);
  b.shell = std::move(shell_built);
  b.schedule = std::make_unique<const sched::LinkSchedule>(
      *b.shell, *cities, util::Seconds{workload.duration_s}, scheduler);
  return b;
}

}  // namespace starcdn::core
