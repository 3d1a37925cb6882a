#include "parabb/support/bench_record.hpp"

#include <fstream>
#include <thread>

namespace parabb {
namespace {

/// The first "model name" of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

JsonValue bench_record(const std::string& bench) {
  JsonValue stamp = JsonValue::object();
  stamp.set("num_cpus", static_cast<int>(std::thread::hardware_concurrency()));
  stamp.set("cpu_model", cpu_model());
  JsonValue doc = JsonValue::object();
  doc.set("schema", "parabb-bench-v1");
  doc.set("bench", bench);
  doc.set("stamp", std::move(stamp));
  return doc;
}

JsonValue table_to_json(const TextTable& table) {
  JsonValue out = JsonValue::object();
  JsonValue header = JsonValue::array();
  for (const std::string& cell : table.header()) header.push_back(cell);
  out.set("header", std::move(header));
  JsonValue rows = JsonValue::array();
  for (const auto& row : table.rows()) {
    if (row.empty()) continue;  // horizontal rule, not data
    JsonValue r = JsonValue::array();
    for (const std::string& cell : row) r.push_back(cell);
    rows.push_back(std::move(r));
  }
  out.set("rows", std::move(rows));
  return out;
}

}  // namespace parabb
