#include "parabb/service/protocol.hpp"

#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>

#include "parabb/obs/metrics.hpp"
#include "parabb/support/json.hpp"
#include "parabb/taskgraph/io.hpp"

namespace parabb {
namespace {

[[noreturn]] void bad_request(const std::string& msg) {
  throw std::runtime_error("bad request: " + msg);
}

std::int64_t get_int_field(const JsonValue& obj, const char* key,
                           std::int64_t fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_number()) bad_request(std::string(key) + " must be a number");
  return v->as_int();
}

double get_double_field(const JsonValue& obj, const char* key,
                        double fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_number()) bad_request(std::string(key) + " must be a number");
  return v->as_double();
}

std::string get_string_field(const JsonValue& obj, const char* key,
                             const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_string()) bad_request(std::string(key) + " must be a string");
  return v->as_string();
}

bool get_bool_field(const JsonValue& obj, const char* key, bool fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_bool()) bad_request(std::string(key) + " must be a bool");
  return v->as_bool();
}

/// Rejects members outside the allowed set. Typo'd or unknown fields fail
/// loudly instead of being silently ignored — a client that sends
/// {"thread":4} gets an error, not a surprising sequential solve.
void reject_unknown_fields(const JsonValue& obj, const char* what,
                           std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      bad_request("unknown " + std::string(what) + " field '" + key + "'");
    }
  }
}

}  // namespace

Machine machine_from_spec(int procs, Time comm_per_item,
                          const std::string& topology) {
  Machine machine;
  machine.procs = procs;
  machine.comm = CommModel::per_item(comm_per_item);
  if (topology == "bus" || topology.empty()) return machine;
  if (topology == "ring") {
    machine.topology = NetworkTopology::ring(procs);
  } else if (topology == "line") {
    machine.topology = NetworkTopology::line(procs);
  } else if (topology.rfind("mesh", 0) == 0) {
    const auto x = topology.find('x');
    int rows = 0;
    int cols = 0;
    try {
      if (x == std::string::npos || x <= 4) throw std::invalid_argument("");
      std::size_t rend = 0;
      std::size_t cend = 0;
      rows = std::stoi(topology.substr(4, x - 4), &rend);
      cols = std::stoi(topology.substr(x + 1), &cend);
      if (rend != x - 4 || cend != topology.size() - x - 1) {
        throw std::invalid_argument("");
      }
    } catch (const std::exception&) {
      throw std::runtime_error("mesh topology needs RxC, e.g. mesh2x2");
    }
    machine.topology = NetworkTopology::mesh(rows, cols);
    machine.procs = rows * cols;
  } else {
    throw std::runtime_error("unknown topology: " + topology);
  }
  return machine;
}

JobRequest request_from_json(const std::string& line) {
  if (line.size() > kMaxRequestLineBytes) {
    bad_request("request line exceeds " +
                std::to_string(kMaxRequestLineBytes) + " bytes (got " +
                std::to_string(line.size()) + ")");
  }
  const JsonValue doc = JsonValue::parse(line);
  if (!doc.is_object()) bad_request("request must be a JSON object");
  reject_unknown_fields(doc, "request",
                        {"id", "graph", "procs", "comm", "topology",
                         "select", "branch", "lb", "br", "ub", "tt",
                         "threads", "priority",
                         "budget", "certify", "flight", "degrade"});

  JobRequest req;
  req.id = get_string_field(doc, "id", "");
  if (req.id.empty()) bad_request("missing request id");

  const JsonValue* graph = doc.find("graph");
  if (!graph || !graph->is_string()) {
    bad_request("missing inline TGF task graph ('graph' string field)");
  }
  req.graph = from_tgf(graph->as_string());

  const auto procs = get_int_field(doc, "procs", 2);
  if (procs < 1 || procs > kMaxProcs) {
    bad_request("procs must be in [1, " + std::to_string(kMaxProcs) + "]");
  }
  req.machine = machine_from_spec(static_cast<int>(procs),
                                  get_int_field(doc, "comm", 1),
                                  get_string_field(doc, "topology", "bus"));

  req.params.select = parse_select_rule(get_string_field(doc, "select",
                                                         "lifo"));
  req.params.branch = parse_branch_rule(get_string_field(doc, "branch",
                                                         "bfn"));
  req.params.lb = parse_lower_bound(get_string_field(doc, "lb", "lb1"));
  req.params.br = get_double_field(doc, "br", 0.0);
  if (req.params.br < 0) bad_request("br must be >= 0");

  if (const JsonValue* ub = doc.find("ub")) {
    if (ub->is_number()) {
      req.params.ub = UpperBoundInit::kExplicit;
      req.params.explicit_ub = ub->as_int();
    } else if (ub->as_string() == "edf") {
      req.params.ub = UpperBoundInit::kFromEDF;
    } else if (ub->as_string() == "inf") {
      req.params.ub = UpperBoundInit::kInfinite;
    } else {
      bad_request("ub must be \"edf\", \"inf\", or a number");
    }
  }

  if (const JsonValue* tt = doc.find("tt")) {
    if (!tt->is_bool()) bad_request("tt must be a bool");
    req.params.transposition.enabled = tt->as_bool();
  }

  req.threads = static_cast<int>(get_int_field(doc, "threads", 1));
  if (req.threads < 0) bad_request("threads must be >= 0");
  req.priority = static_cast<int>(get_int_field(doc, "priority", 0));

  req.certify = get_bool_field(doc, "certify", false);
  req.flight = get_bool_field(doc, "flight", false);
  // Opt into the graceful-degradation ladder (a no-op unless the budget
  // carries max_active_bytes).
  req.params.degrade = get_bool_field(doc, "degrade", false);

  if (const JsonValue* budget = doc.find("budget")) {
    if (!budget->is_object()) bad_request("budget must be an object");
    reject_unknown_fields(*budget, "budget",
                          {"wall_ms", "max_generated", "max_active_bytes"});
    req.budget.wall_ms = get_double_field(*budget, "wall_ms", 0.0);
    req.budget.max_generated = static_cast<std::uint64_t>(
        get_int_field(*budget, "max_generated", 0));
    req.budget.max_active_bytes = static_cast<std::size_t>(
        get_int_field(*budget, "max_active_bytes", 0));
    if (req.budget.wall_ms < 0) bad_request("budget.wall_ms must be >= 0");
  }

  return req;
}

std::string response_to_json(const JobResult& result,
                             const TaskGraph& graph) {
  if (!result.error.empty()) {
    return error_response_json(result.id, result.error);
  }
  JsonValue out = JsonValue::object();
  out.set("id", result.id);
  out.set("outcome", to_string(result.outcome));
  if (result.found) {
    out.set("cost", result.cost);
    out.set("proved", result.proved);
  }
  if (result.certified_lower_bound > kTimeNegInf) {
    out.set("lower_bound", result.certified_lower_bound);
  }
  out.set("cached", result.cached);
  out.set("generated", result.generated);
  out.set("seconds", result.seconds);
  if (result.found) {
    JsonValue sched = JsonValue::array();
    for (TaskId t = 0; t < result.schedule.task_count(); ++t) {
      const ScheduledTask& e = result.schedule.entry(t);
      JsonValue entry = JsonValue::object();
      entry.set("task", graph.task(t).name);
      entry.set("proc", static_cast<std::int64_t>(e.proc));
      entry.set("start", e.start);
      entry.set("finish", e.finish);
      sched.push_back(std::move(entry));
    }
    out.set("schedule", std::move(sched));
  }
  if (!result.certificate.empty()) {
    out.set("certificate", result.certificate);
  }
  if (!result.flight_json.empty()) {
    out.set("flight", JsonValue::parse(result.flight_json));
  }
  return out.dump();
}

std::string error_response_json(const std::string& id,
                                const std::string& message) {
  JsonValue out = JsonValue::object();
  out.set("id", id.empty() ? "?" : id);
  out.set("error", message);
  return out.dump();
}

std::string overloaded_response_json(const std::string& id,
                                     double retry_after_ms) {
  JsonValue out = JsonValue::object();
  out.set("id", id.empty() ? "?" : id);
  out.set("outcome", std::string("overloaded"));
  out.set("retry_after_ms", retry_after_ms);
  return out.dump();
}

std::optional<MetricsRequest> parse_metrics_request(const std::string& line,
                                                    std::size_t line_no) {
  if (line.size() > kMaxRequestLineBytes) return std::nullopt;
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const std::exception&) {
    return std::nullopt;  // the solve-request path reports parse errors
  }
  if (!doc.is_object() || doc.find("metrics") == nullptr) {
    return std::nullopt;
  }
  const auto bad = [line_no](const std::string& msg) -> std::runtime_error {
    return std::runtime_error("metrics request at line " +
                              std::to_string(line_no) + ": " + msg);
  };
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (key != "id" && key != "metrics") {
      throw bad("unknown field '" + key + "'");
    }
  }
  const JsonValue& flag = *doc.find("metrics");
  if (!flag.is_bool() || !flag.as_bool()) {
    throw bad("'metrics' must be the literal true");
  }
  MetricsRequest req;
  const JsonValue* id = doc.find("id");
  if (!id) throw bad("missing request id");
  if (!id->is_string() || id->as_string().empty()) {
    throw bad("id must be a non-empty string");
  }
  req.id = id->as_string();
  return req;
}

std::string metrics_response_json(const std::string& id,
                                  const MetricsSnapshot& snapshot) {
  JsonValue out = JsonValue::object();
  out.set("id", id);
  out.set("metrics", snapshot.to_json());
  return out.dump();
}

}  // namespace parabb
