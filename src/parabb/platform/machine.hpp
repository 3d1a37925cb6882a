// Machine model (paper §2.1, §4): m identical processors communicating over
// an interconnect characterized by a *nominal* per-message delay.
//
// The nominal delay is the worst-case communication cost the scheduler
// charges for a cross-processor message: message items × delay-per-item.
// Same-processor communication costs nothing (shared memory). Network
// transfers overlap with computation (no processor involvement).
#pragma once

#include <optional>
#include <string>

#include "parabb/platform/topology.hpp"
#include "parabb/support/types.hpp"

namespace parabb {

/// Stateless nominal communication-cost model.
class CommModel {
 public:
  /// Zero-cost interconnect (ideal shared memory between processors).
  static constexpr CommModel zero() noexcept { return CommModel(0); }

  /// The paper's shared time-multiplexed bus: `per_item` time units per
  /// transmitted data item (paper uses 1).
  static constexpr CommModel per_item(Time per_item = 1) noexcept {
    return CommModel(per_item);
  }

  /// Nominal delay of a message of `items` data items between two *distinct*
  /// processors. Callers are responsible for charging 0 on-processor.
  constexpr Time delay(Time items) const noexcept {
    return items * per_item_;
  }

  constexpr Time per_item_delay() const noexcept { return per_item_; }

  friend constexpr bool operator==(CommModel, CommModel) noexcept = default;

 private:
  explicit constexpr CommModel(Time per_item) noexcept
      : per_item_(per_item) {}

  Time per_item_;
};

/// A homogeneous multiprocessor: `procs` identical processors plus the
/// interconnect's nominal cost model and (optionally) its topology.
/// Without a topology every distinct pair is one hop — the paper's
/// shared bus.
struct Machine {
  int procs = 1;
  CommModel comm = CommModel::per_item(1);
  std::optional<NetworkTopology> topology;

  /// Store-and-forward hops between two processors (0 iff equal).
  int hops(ProcId p, ProcId q) const {
    if (p == q) return 0;
    return topology ? topology->hops(p, q) : 1;
  }

  /// Nominal delay of a message of `items` between p and q:
  /// items × per-item delay × hops(p, q). Zero on the same processor.
  Time comm_delay(ProcId p, ProcId q, Time items) const;

  std::string describe() const;
};

/// Convenience factory matching the paper's experimental platform
/// (shared bus, 1 time unit per data item).
Machine make_shared_bus_machine(int procs);

/// A machine whose interconnect follows `topology` with the given
/// per-item, per-hop delay.
Machine make_network_machine(NetworkTopology topology, Time per_item = 1);

}  // namespace parabb
