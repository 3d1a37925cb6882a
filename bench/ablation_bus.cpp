// Ablation (ours): nominal communication model vs explicit bus contention.
//
// The paper charges a nominal per-item delay and lets the interconnect's
// own scheduler absorb contention (§2.1). This bench re-times nominal EDF
// schedules on an explicitly serialized shared bus (platform/bus.hpp) and
// reports how much lateness the nominal model hides as the CCR grows.
#include <cstdio>

#include "common.hpp"
#include "parabb/sched/bus_aware.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/support/stats.hpp"

int main(int argc, char** argv) {
  using namespace parabb;
  using namespace parabb::bench;

  ArgParser parser("ablation_bus",
                   "Ablation: lateness hidden by the nominal comm model");
  add_common_options(parser);
  parser.add_option("ccrs", "CCR values to sweep", "0.5,1.0,2.0,4.0");
  auto setup = parse_common(parser, argc, argv);
  if (!setup) return 0;

  const auto ccrs = parser.get_double_list("ccrs");
  const int m = setup->cfg.machine_sizes.back();
  const int reps = setup->cfg.max_reps;

  std::printf("# Ablation — explicit shared-bus contention (m=%d)\n", m);
  std::printf("expected shape: the lateness penalty of explicit bus "
              "serialization grows with CCR; bus utilization approaches "
              "saturation\n\n");

  TextTable table;
  table.set_header({"CCR", "nominal lateness", "bus lateness", "penalty",
                    "bus busy", "messages/run"});
  for (const double ccr : ccrs) {
    OnlineStats nominal, contended, busy, msgs;
    for (int rep = 0; rep < reps; ++rep) {
      GeneratorConfig wl = setup->cfg.workload;
      wl.ccr = ccr;
      GeneratedGraph gen = generate_graph(
          wl, derive_seed(setup->cfg.seed, static_cast<std::uint64_t>(rep)));
      assign_deadlines_slicing(gen.graph, setup->cfg.slicing);
      const SchedContext ctx(gen.graph, make_shared_bus_machine(m));
      const EdfResult edf = schedule_edf(ctx);
      const BusAwareResult bus = retime_with_bus(ctx, gen.graph, edf.schedule);
      nominal.add(static_cast<double>(edf.max_lateness));
      contended.add(static_cast<double>(bus.max_lateness));
      busy.add(static_cast<double>(bus.bus_busy));
      msgs.add(static_cast<double>(bus.messages));
    }
    table.add_row({fmt_double(ccr, 2), fmt_double(nominal.mean(), 2),
                   fmt_double(contended.mean(), 2),
                   fmt_double(contended.mean() - nominal.mean(), 2),
                   fmt_double(busy.mean(), 1), fmt_double(msgs.mean(), 1)});
  }
  emit("nominal vs contended shared bus (EDF schedules)", table, setup->csv);
  return 0;
}
