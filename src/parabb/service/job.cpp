#include "parabb/service/job.hpp"

#include <algorithm>

#include "parabb/bnb/cancel.hpp"

namespace parabb {

void apply_budget(Params& params, const Budget& budget,
                  const CancelToken* cancel) {
  if (budget.wall_ms > 0) {
    params.rb.time_limit_s =
        std::min(params.rb.time_limit_s, budget.wall_ms / 1000.0);
  }
  if (budget.max_generated > 0) {
    params.rb.max_generated =
        std::min(params.rb.max_generated, budget.max_generated);
  }
  if (budget.max_active_bytes > 0) {
    params.rb.max_memory_bytes =
        std::min(params.rb.max_memory_bytes, budget.max_active_bytes);
  }
  params.cancel = cancel;
}

std::string to_string(JobOutcome o) {
  switch (o) {
    case JobOutcome::kOptimal: return "optimal";
    case JobOutcome::kFeasibleTimeout: return "feasible_timeout";
    case JobOutcome::kCancelled: return "cancelled";
    case JobOutcome::kInfeasible: return "infeasible";
  }
  return "unknown";
}

int exit_code_for(JobOutcome o) {
  switch (o) {
    case JobOutcome::kOptimal: return 0;
    case JobOutcome::kFeasibleTimeout: return 3;
    case JobOutcome::kCancelled: return 4;
    case JobOutcome::kInfeasible: return 5;
  }
  return 2;
}

JobOutcome outcome_of(TerminationReason reason, bool found_solution,
                      bool compromised) {
  if (reason == TerminationReason::kCancelled) return JobOutcome::kCancelled;
  if (!found_solution) return JobOutcome::kInfeasible;
  // A compromised search exhausted only what a resource bound let it keep.
  if (is_interrupted(reason) || compromised)
    return JobOutcome::kFeasibleTimeout;
  return JobOutcome::kOptimal;  // kExhausted / kBoundStop: search completed
}

}  // namespace parabb
