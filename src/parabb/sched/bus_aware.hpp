// Bus-aware schedule re-timing (extension; see platform/bus.hpp).
//
// Takes a schedule produced under the paper's *nominal* communication model
// and re-times it with messages explicitly serialized on one shared bus:
// task-to-processor assignment and per-processor task order are preserved;
// start times are recomputed so each cross-processor message holds an
// exclusive bus slot. Quantifies the lateness the nominal model hides when
// the bus saturates (`bench/ablation_bus`).
#pragma once

#include "parabb/platform/bus.hpp"
#include "parabb/sched/schedule.hpp"

namespace parabb {

struct BusAwareResult {
  Schedule schedule;        ///< re-timed schedule
  Time max_lateness = 0;    ///< lateness under explicit bus contention
  Time bus_busy = 0;        ///< total reserved bus time
  std::size_t messages = 0; ///< cross-processor transfers serialized
};

/// Re-times `nominal` on the context's machine with an explicit shared bus
/// whose per-item delay equals the machine's nominal per-item delay. The
/// message sizes come from `graph`, the graph `ctx` was built from.
/// Messages are granted bus slots in increasing producer-finish order
/// (deterministic).
BusAwareResult retime_with_bus(const SchedContext& ctx, const TaskGraph& graph,
                               const Schedule& nominal);

}  // namespace parabb
