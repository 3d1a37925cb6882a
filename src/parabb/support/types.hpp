// Fundamental scalar types shared by every ParaBB subsystem.
#pragma once

#include <cstdint>
#include <limits>

namespace parabb {

/// Discrete model time, in "time units" (the paper's unit; one bus slot
/// transmits one data item per time unit). Signed: lateness values are
/// negative when tasks finish before their deadlines.
using Time = std::int64_t;

/// Index of a task within its TaskGraph (dense, 0-based).
using TaskId = std::int32_t;

/// Index of a processor within the machine (dense, 0-based).
using ProcId = std::int32_t;

/// Sentinel for "no task".
inline constexpr TaskId kNoTask = -1;
/// Sentinel for "no processor" (task not yet assigned).
inline constexpr ProcId kNoProc = -1;

/// +infinity surrogate for Time. Large enough that adding any realistic
/// execution/communication cost does not overflow int64.
inline constexpr Time kTimeInf = std::numeric_limits<Time>::max() / 4;
/// -infinity surrogate for Time.
inline constexpr Time kTimeNegInf = -kTimeInf;

/// Hard compile-time ceilings used by the fixed-capacity structures on the
/// branch-and-bound hot path. The paper's experiments use n <= 16, m <= 4;
/// these leave headroom while keeping a PartialSchedule at 256 bytes. A
/// stored search vertex is 128 bytes for instances within the paper's
/// sizes and 272 beyond them (vertex_bytes in bnb/vertex.hpp). Active sets
/// can hold millions of vertices, so per-vertex size is what bounds the
/// biggest solvable instances — the paper hit exactly this wall on a 64 MB
/// SPARCstation.
inline constexpr int kMaxTasks = 32;
inline constexpr int kMaxProcs = 8;

/// Times inside a packed search vertex are stored as 32-bit; scheduling
/// horizons must fit. Checked when a search context is built.
inline constexpr Time kMaxCompactTime = (Time{1} << 30);

}  // namespace parabb
