#include "parabb/service/fingerprint.hpp"

#include <sstream>

#include "parabb/support/hash.hpp"
#include "parabb/taskgraph/io.hpp"

namespace parabb {

std::uint64_t fingerprint_bytes(const std::string& bytes) noexcept {
  // mix64 chain over 8-byte little-endian chunks (zero-padded tail), with
  // the length folded in so "a" and "a\0" cannot collide trivially.
  std::uint64_t h = mix64(0x9e3779b97f4a7c15ULL ^ bytes.size());
  std::uint64_t chunk = 0;
  int filled = 0;
  for (const char c : bytes) {
    chunk |= static_cast<std::uint64_t>(static_cast<unsigned char>(c))
             << (8 * filled);
    if (++filled == 8) {
      h = mix64(h ^ chunk);
      chunk = 0;
      filled = 0;
    }
  }
  if (filled > 0) h = mix64(h ^ chunk);
  return h;
}

std::string request_key(const JobRequest& request) {
  std::ostringstream os;
  // Graph: the normalized TGF writer output is canonical (stable task
  // order, only non-default attributes emitted).
  os << to_tgf(request.graph);
  // Machine: processor count, per-item delay, and the full hop matrix
  // (covers bus/ring/line/mesh and any future topology uniformly).
  os << "machine procs=" << request.machine.procs
     << " per_item=" << request.machine.comm.per_item_delay() << " hops=";
  for (ProcId p = 0; p < request.machine.procs; ++p) {
    for (ProcId q = 0; q < request.machine.procs; ++q) {
      os << request.machine.hops(p, q) << ',';
    }
  }
  os << '\n';
  // 9-tuple parameters that influence the search result. `observe` and
  // `cancel` are service-owned and excluded; the F/D hooks cannot be
  // fingerprinted, so requests carrying them must bypass the cache (the
  // service refuses to cache them — see SolverService).
  const Params& p = request.params;
  os << "params " << describe(p) << " explicit_ub=" << p.explicit_ub
     << " sort=" << p.sort_children << " llb_tie=" << p.llb_tie_newest
     << " tt=" << p.transposition.enabled << '/'
     << p.transposition.memory_cap_bytes << '/' << p.transposition.shards
     << " rb=" << p.rb.time_limit_s << '/' << p.rb.max_active << '/'
     << p.rb.max_children << '/' << p.rb.max_generated << '/'
     << p.rb.max_memory_bytes << '\n';
  os << "engine threads=" << (request.threads > 1 ? request.threads : 1)
     << '\n';
  // Certified results carry the certificate text; a plain cached result
  // must never satisfy a certify request (or vice versa).
  os << "certify=" << request.certify << '\n';
  // A flight-dump-carrying result must never satisfy a plain request
  // (or vice versa), exactly like certificates.
  os << "flight=" << request.flight << '\n';
  // The degradation ladder changes which vertices a memory-capped run
  // explores, so a degraded result must not satisfy a ladder-off request.
  os << (request.params.degrade ? "degrade=on" : "degrade=off") << '\n';
  os << "budget wall_ms=" << request.budget.wall_ms
     << " max_generated=" << request.budget.max_generated
     << " max_active_bytes=" << request.budget.max_active_bytes << '\n';
  return os.str();
}

std::uint64_t request_fingerprint(const JobRequest& request) {
  return fingerprint_bytes(request_key(request));
}

}  // namespace parabb
