// parabb-bench-v1 records: the JSON that the repo's benchmark harnesses
// and `parabb_solve --stats-json` write and tools/bench_check.py reads.
//
// Every record carries a machine stamp, so bench_check.py compares timings
// only between runs on the same kind of machine: the number of online CPUs
// and the CPU model. Structure-only checks ignore it.
#pragma once

#include <string>

#include "parabb/support/json.hpp"
#include "parabb/support/table.hpp"

namespace parabb {

/// A record for `bench`: its schema, name and machine stamp
/// ({"num_cpus": <online CPUs>, "cpu_model": <model name or "unknown">});
/// the caller adds its tables and parameters.
JsonValue bench_record(const std::string& bench);

/// `table` as {"header": [...], "rows": [[...], ...]}, horizontal rules
/// dropped.
JsonValue table_to_json(const TextTable& table);

}  // namespace parabb
