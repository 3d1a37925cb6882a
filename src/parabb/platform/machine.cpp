#include "parabb/platform/machine.hpp"

#include "parabb/support/assert.hpp"

namespace parabb {

Time Machine::comm_delay(ProcId p, ProcId q, Time items) const {
  if (p == q) return 0;
  return comm.delay(items) * hops(p, q);
}

std::string Machine::describe() const {
  std::string out = std::to_string(procs) + " identical processors, ";
  if (comm.per_item_delay() == 0) return out + "zero-cost interconnect";
  out += topology ? topology->name() : std::string("shared bus");
  out += " @ " + std::to_string(comm.per_item_delay()) +
         " time unit(s)/item/hop";
  return out;
}

Machine make_shared_bus_machine(int procs) {
  PARABB_REQUIRE(procs >= 1 && procs <= kMaxProcs,
                 "processor count out of supported range");
  return Machine{procs, CommModel::per_item(1), std::nullopt};
}

Machine make_network_machine(NetworkTopology topology, Time per_item) {
  Machine m;
  m.procs = topology.procs();
  m.comm = CommModel::per_item(per_item);
  m.topology = std::move(topology);
  return m;
}

}  // namespace parabb
