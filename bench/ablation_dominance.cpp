// Ablation (ours): D as processor-symmetry dominance.
//
// The paper leaves D unused "to preserve the results as general as
// possible". Processor symmetry (Params::dominance, bnb/expand.hpp) is
// sound on machines whose processors are pairwise equally many hops apart
// and places a task on one empty processor only, not on each of its
// renamings; this bench measures what it saves on the paper's own
// workload.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace parabb;
  using namespace parabb::bench;

  ArgParser parser("ablation_dominance",
                   "Ablation: processor-symmetry dominance (D)");
  add_common_options(parser);
  auto setup = parse_common(parser, argc, argv);
  if (!setup) return 0;

  Params with = base_params(*setup);
  with.dominance = true;
  const Params without = base_params(*setup);

  setup->cfg.variants.push_back(bnb_variant("with D (symmetry)", with));
  setup->cfg.variants.push_back(bnb_variant("without D", without));

  run_and_report(
      "Ablation — processor-symmetry dominance",
      "identical optimal lateness; the symmetry rule skips renamed-"
      "processor siblings, with the largest relative effect at larger m "
      "(more empty processors to rename)",
      *setup, /*ratio_reference=*/0);
  return 0;
}
