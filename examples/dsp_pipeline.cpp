// DSP pipeline: the application domain that motivated multiprocessor B&B
// schedulers (Konstantinides et al., the paper's [2]).
//
// Schedules a two-sensor signal-processing pipeline (filters, a split FFT,
// feature extraction, fusion, actuation) on 2..4 processors, comparing the
// greedy EDF, the HLFET list heuristic, the optimal B&B, and the explicit
// shared-bus re-timing of the optimal schedule.
//
//   $ ./dsp_pipeline [--procs 3] [--laxity 1.3]
#include <cstdio>

#include "parabb/bnb/engine.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/sched/bus_aware.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/sched/list.hpp"
#include "parabb/support/cli.hpp"
#include "parabb/support/table.hpp"
#include "parabb/workload/presets.hpp"

int main(int argc, char** argv) {
  using namespace parabb;

  ArgParser parser("dsp_pipeline",
                   "Optimal vs heuristic scheduling of a DSP pipeline");
  parser.add_option("laxity", "end-to-end laxity ratio", "1.3");
  parser.add_option("machines", "processor counts", "2,3,4");
  if (!parser.parse(argc, argv)) return 0;

  TaskGraph graph = preset_dsp_pipeline();
  SlicingConfig slicing;
  slicing.laxity = parser.get_double("laxity");
  slicing.base = LaxityBase::kPathWork;
  const SlicingReport rep = assign_deadlines_slicing(graph, slicing);
  std::printf("DSP pipeline: %d tasks, critical path %lld, e2e deadline "
              "%lld\n\n",
              graph.task_count(),
              static_cast<long long>(rep.critical_path),
              static_cast<long long>(rep.e2e_deadline));

  TextTable table;
  table.set_header({"m", "EDF", "HLFET", "B&B optimal", "B&B vertices",
                    "bus-contended optimal"});
  for (const auto m64 : parser.get_int_list("machines")) {
    const int m = static_cast<int>(m64);
    const Machine machine = make_shared_bus_machine(m);
    const SchedContext ctx(graph, machine);

    const EdfResult edf = schedule_edf(ctx);
    const ListResult hlfet = schedule_hlfet(ctx);
    const SearchResult opt = solve_bnb(ctx, Params{});
    const BusAwareResult bus = retime_with_bus(ctx, graph, opt.best);

    table.add_row({std::to_string(m), std::to_string(edf.max_lateness),
                   std::to_string(hlfet.max_lateness),
                   std::to_string(opt.best_cost),
                   std::to_string(opt.stats.generated),
                   std::to_string(bus.max_lateness)});

    if (m == 2) {
      std::printf("optimal 2-processor schedule:\n%s\n",
                  to_gantt(opt.best, graph, m).c_str());
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(lower lateness is better; negative means the pipeline "
              "meets every window with slack)\n");
  return 0;
}
