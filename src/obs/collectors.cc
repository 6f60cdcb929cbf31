#include "obs/collectors.h"

#include <string>

#include "parallel/scheduler.h"
#include "util/failpoint.h"

namespace ligra::obs {

uint64_t install_failpoint_collector(metrics_registry& reg) {
  return reg.add_collector([&reg] {
    reg.get_gauge("failpoint_armed")
        .set(util::failpoint::armed_count());
    for (const auto& [site, count] : util::failpoint::all_hits()) {
      reg.get_gauge("failpoint_hits{site=\"" + site + "\"}")
          .set(static_cast<int64_t>(count));
    }
  });
}

uint64_t install_scheduler_collector(metrics_registry& reg) {
  return reg.add_collector([&reg] {
    auto stats = parallel::scheduler::instance().worker_stats();
    uint64_t steals = 0, parks = 0;
    for (size_t i = 0; i < stats.size(); i++) {
      steals += stats[i].steals;
      parks += stats[i].parks;
      std::string w = "{worker=\"" + std::to_string(i) + "\"}";
      reg.get_gauge("scheduler_steals" + w)
          .set(static_cast<int64_t>(stats[i].steals));
      reg.get_gauge("scheduler_parks" + w)
          .set(static_cast<int64_t>(stats[i].parks));
    }
    reg.get_gauge("scheduler_workers").set(static_cast<int64_t>(stats.size()));
    reg.get_gauge("scheduler_steals").set(static_cast<int64_t>(steals));
    reg.get_gauge("scheduler_parks").set(static_cast<int64_t>(parks));
  });
}

}  // namespace ligra::obs
