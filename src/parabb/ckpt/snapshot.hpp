// Crash-safe search-state snapshots (DESIGN: ISSUE 10 tentpole).
//
// A SearchSnapshot is everything either B&B engine needs to continue a run
// after the process died: the incumbent schedule and its cost, the live
// frontier (active-set entries for the sequential engine; every worker's
// deque, read between two worker rounds, for the parallel engine), the
// transposition-table survivors, the accumulated certificate cuts, the
// degradation-ladder rung, and the merged SearchStats. States are stored
// as replayable placement paths (verify/certificate.hpp) rather than raw
// structs, so the on-disk format is independent of PartialSchedule's
// memory layout and every load re-validates each state against the
// scheduling operation.
//
// Resume is *sound by re-derivation*: everything a resumed run could lose
// relative to the uninterrupted one — transposition entries, incumbent
// improvements found after the snapshot, subtrees pruned after the
// snapshot — is re-derived from the frontier, because every vertex live at
// snapshot time (or descended from one) is rooted in some stored frontier
// entry.
//
// On disk: "PBCK" magic, format version, payload length, CRC-32 of the
// payload, then the little-endian payload (docs/formats.md, "Checkpoint &
// journal"). Writes are atomic: temp file in the same directory, fsync,
// rename. Loads reject bad magic/version/truncation/CRC with
// SnapshotError — never a crash, never a partial state.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/params.hpp"
#include "parabb/bnb/transposition.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/sched/partial_schedule.hpp"
#include "parabb/sched/schedule.hpp"
#include "parabb/support/types.hpp"
#include "parabb/verify/certificate.hpp"

namespace parabb {

/// Thrown by load_snapshot / replay_path on any malformed or mismatched
/// checkpoint: bad magic, unsupported version, truncation, CRC mismatch,
/// or a placement path the scheduling operation refuses to replay.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("parabb checkpoint: " + what) {}
};

/// One frontier vertex: the placement path that rebuilds its state, the
/// engine's bound for it, and its generation sequence (selection order).
struct SnapshotVertex {
  std::vector<CutPlacement> path;
  Time lb = 0;
  std::uint32_t seq = 0;
};

/// One transposition-table survivor (path + recorded bound).
struct SnapshotTTEntry {
  std::vector<CutPlacement> path;
  Time lb = 0;
};

/// Which engine wrote the snapshot (informational; either engine can
/// resume either snapshot — the frontier semantics are identical).
enum class SnapshotEngine : std::uint8_t { kSequential = 0, kParallel = 1 };

struct SearchSnapshot {
  /// Bump on any change to the binary payload layout.
  static constexpr std::uint32_t kFormatVersion = 1;

  /// instance_fingerprint(ctx, params) of the run that wrote it; resume
  /// refuses a snapshot taken for a different instance or 9-tuple.
  std::uint64_t instance = 0;
  SnapshotEngine engine = SnapshotEngine::kSequential;

  // -- incumbent --------------------------------------------------------
  bool found = false;
  Time incumbent_cost = kTimeInf;
  std::vector<ScheduledTask> incumbent;  ///< entries; empty unless found

  // -- frontier ---------------------------------------------------------
  /// ActiveSet::entries() order for the sequential engine (insertion
  /// order for LIFO/FIFO, ascending (bound, seq) for LLB); for the
  /// parallel engine, worker by worker, its in-hand vertex and then its
  /// deque from newest to oldest.
  std::vector<SnapshotVertex> frontier;
  std::uint32_t next_seq = 0;

  // -- accounting -------------------------------------------------------
  /// Totals at snapshot time, *including* any earlier resumed-from runs;
  /// stats.seconds is the accumulated wall time, so budgets keep counting
  /// across restarts.
  SearchStats stats;

  // -- degradation ladder (robust/degrade.hpp) --------------------------
  int degrade_level = 0;     ///< rungs already fired (0 = pristine)
  bool compromised = false;  ///< a completeness-voiding rung fired
  Time compromise_floor = kTimeInf;  ///< kTimeNegInf once compromised

  // -- transposition table ----------------------------------------------
  bool tt_present = false;
  TranspositionCounters tt_counters;
  std::vector<SnapshotTTEntry> tt_entries;

  // -- certificate continuity (verify/certificate.hpp) ------------------
  bool cert_present = false;
  bool cert_truncated = false;
  std::vector<DegradeRecord> cert_degrades;
  std::vector<CutRecord> cert_cuts;
};

/// Snapshot-side bound on the certificate audit log: at most this many
/// cut records ride along in a checkpoint; past it the tail is dropped
/// and the snapshot marked cert_truncated — an accepted certificate
/// state (the verifier re-derives what it cannot audit). Keeps periodic
/// snapshot writes at megabytes even when the builder's own 2^20-record
/// log saturates (~200 MB of paths, far too heavy per write cadence).
inline constexpr std::size_t kSnapshotCutCap = std::size_t{1} << 14;

/// Same idea for transposition-table survivors: the table is a pure
/// accelerator (a resumed run re-derives anything dropped), so a
/// checkpoint carries at most this many entries.
inline constexpr std::size_t kSnapshotTTCap = std::size_t{1} << 15;

/// Stable 64-bit digest of the (task graph × machine) instance plus the
/// result-determining members of the 9-tuple, chained through mix64
/// (support/hash.hpp). Two runs with equal fingerprints search the same
/// tree, so a snapshot from one may seed the other.
std::uint64_t instance_fingerprint(const SchedContext& ctx, const Params& p);

/// True when `snap` was written for exactly this (ctx, params) pair.
bool snapshot_matches(const SearchSnapshot& snap, const SchedContext& ctx,
                      const Params& p);

/// Rebuilds a state from its placement path via the scheduling operation;
/// throws SnapshotError when a placement is inapplicable or its recorded
/// start disagrees with the operation (corruption the CRC cannot see).
PartialSchedule replay_path(const SchedContext& ctx,
                            std::span<const CutPlacement> path);

/// Serializes to the framed binary form (magic + version + length + CRC).
std::vector<std::uint8_t> encode_snapshot(const SearchSnapshot& snap);

/// Parses a framed snapshot; throws SnapshotError on any defect.
SearchSnapshot decode_snapshot(std::span<const std::uint8_t> bytes);

/// Atomic durable write: <path>.tmp + fsync + rename(<path>). Returns the
/// framed byte count. Throws SnapshotError on I/O failure.
std::size_t save_snapshot(const std::string& path, const SearchSnapshot& s);

/// Reads and decodes; throws SnapshotError (missing file, truncation,
/// CRC/version mismatch, invalid payload).
SearchSnapshot load_snapshot(const std::string& path);

/// CRC-32 (IEEE 802.3, reflected) — exposed for tests and the journal.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

}  // namespace parabb
