#include "parabb/taskgraph/io.hpp"

#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "parabb/support/assert.hpp"

namespace parabb {
namespace {

[[noreturn]] void parse_fail(int line, const std::string& msg) {
  throw std::runtime_error("tgf parse error at line " + std::to_string(line) +
                           ": " + msg);
}

/// Parses "key=value" into (key, value); returns false if '=' missing.
bool split_kv(const std::string& token, std::string& key, std::string& val) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return false;
  key = token.substr(0, eq);
  val = token.substr(eq + 1);
  return true;
}

Time parse_time(const std::string& s, int line) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size()) parse_fail(line, "bad integer: " + s);
    return v;
  } catch (const std::invalid_argument&) {
    parse_fail(line, "bad integer: " + s);
  } catch (const std::out_of_range&) {
    parse_fail(line, "integer out of range: " + s);
  }
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name) out += (c == '"' ? '\'' : c);
  return out;
}

}  // namespace

std::string to_tgf(const TaskGraph& graph) {
  std::ostringstream os;
  os << "# parabb task graph: " << graph.task_count() << " tasks, "
     << graph.arc_count() << " arcs\n";
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    const Task& task = graph.task(t);
    PARABB_REQUIRE(!task.name.empty() &&
                       task.name.find_first_of(" \t\n=") == std::string::npos,
                   "task name must be non-empty and free of whitespace/'='");
    os << "task " << task.name << " exec=" << task.exec;
    if (task.rel_deadline != 0) os << " deadline=" << task.rel_deadline;
    if (task.phase != 0) os << " phase=" << task.phase;
    if (task.period != 0) os << " period=" << task.period;
    os << '\n';
  }
  for (const Channel& c : graph.arcs()) {
    os << "arc " << graph.task(c.from).name << ' ' << graph.task(c.to).name;
    if (c.items != 0) os << " items=" << c.items;
    os << '\n';
  }
  return os.str();
}

namespace {

/// Reads the next line of `in`, without its '\n', into `line`, holding
/// at most kMaxTgfLineBytes + 1 bytes of it. False at the end of the input.
bool read_line(std::istream& in, std::string& line, int lineno) {
  char buf[kMaxTgfLineBytes + 2];
  in.getline(buf, sizeof buf);  // fails once it stores sizeof buf - 1 bytes
  const auto n = static_cast<std::size_t>(in.gcount());
  if (n == 0 && in.fail()) return false;
  line.assign(buf, in.good() ? n - 1 : n);  // gcount counts a read '\n'
  if (line.size() > kMaxTgfLineBytes) {
    parse_fail(lineno, "line longer than " +
                           std::to_string(kMaxTgfLineBytes) + " bytes");
  }
  return true;
}

/// The one TGF parser behind from_tgf and load_tgf.
TaskGraph parse_tgf(std::istream& in) {
  TaskGraph g;
  std::map<std::string, TaskId> by_name;
  int lineno = 1;
  for (std::string line; read_line(in, line, lineno); ++lineno) {
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;
    if (kind == "task") {
      if (g.task_count() == kMaxTgfTasks) {
        parse_fail(lineno, "more than " + std::to_string(kMaxTgfTasks) +
                               " tasks");
      }
      std::string name;
      if (!(ls >> name)) parse_fail(lineno, "task needs a name");
      if (by_name.contains(name)) parse_fail(lineno, "duplicate task " + name);
      Task t;
      t.name = name;
      bool have_exec = false;
      std::string token;
      while (ls >> token) {
        std::string key, val;
        if (!split_kv(token, key, val))
          parse_fail(lineno, "expected key=value, got " + token);
        if (key == "exec") {
          t.exec = parse_time(val, lineno);
          have_exec = true;
        } else if (key == "deadline") {
          t.rel_deadline = parse_time(val, lineno);
        } else if (key == "phase") {
          t.phase = parse_time(val, lineno);
        } else if (key == "period") {
          t.period = parse_time(val, lineno);
        } else {
          parse_fail(lineno, "unknown task attribute: " + key);
        }
      }
      if (!have_exec) parse_fail(lineno, "task " + name + " missing exec=");
      if (t.exec < 0) parse_fail(lineno, "negative exec");
      by_name[name] = g.add_task(std::move(t));
    } else if (kind == "arc") {
      if (g.arc_count() == kMaxTgfArcs) {
        parse_fail(lineno, "more than " + std::to_string(kMaxTgfArcs) +
                               " arcs");
      }
      std::string from, to;
      if (!(ls >> from >> to)) parse_fail(lineno, "arc needs two endpoints");
      if (!by_name.contains(from)) parse_fail(lineno, "unknown task " + from);
      if (!by_name.contains(to)) parse_fail(lineno, "unknown task " + to);
      // Reject the degenerate arcs here, where the offending line number
      // is known, instead of letting add_arc()'s precondition or the
      // final cycle check report them without location context.
      if (from == to) parse_fail(lineno, "self-loop arc " + from);
      if (g.items_on_arc(by_name.at(from), by_name.at(to)) != kTimeNegInf)
        parse_fail(lineno, "duplicate arc " + from + " -> " + to);
      Time items = 0;
      std::string token;
      while (ls >> token) {
        std::string key, val;
        if (!split_kv(token, key, val))
          parse_fail(lineno, "expected key=value, got " + token);
        if (key == "items") items = parse_time(val, lineno);
        else parse_fail(lineno, "unknown arc attribute: " + key);
      }
      try {
        g.add_arc(by_name.at(from), by_name.at(to), items);
      } catch (const precondition_error& e) {
        parse_fail(lineno, e.what());
      }
    } else {
      parse_fail(lineno, "unknown record kind: " + kind);
    }
  }
  const std::string err = g.validate();
  if (!err.empty()) throw std::runtime_error("tgf: invalid graph: " + err);
  return g;
}

}  // namespace

TaskGraph from_tgf(const std::string& text) {
  std::istringstream in(text);
  return parse_tgf(in);
}

std::string to_dot(const TaskGraph& graph) {
  std::ostringstream os;
  os << "digraph taskgraph {\n  rankdir=TB;\n  node [shape=box];\n";
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    const Task& task = graph.task(t);
    os << "  t" << t << " [label=\"" << sanitize(task.name) << "\\nc="
       << task.exec;
    if (task.rel_deadline != 0)
      os << " D=" << task.abs_deadline();
    os << "\"];\n";
  }
  for (const Channel& c : graph.arcs()) {
    os << "  t" << c.from << " -> t" << c.to;
    if (c.items != 0) os << " [label=\"" << c.items << "\"]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

void save_tgf(const TaskGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << to_tgf(graph);
  if (!out) throw std::runtime_error("write failed: " + path);
}

TaskGraph load_tgf(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return parse_tgf(in);
}

}  // namespace parabb
