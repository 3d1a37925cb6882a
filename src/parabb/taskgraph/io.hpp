// Task graph serialization: a simple line-oriented text format ("TGF") for
// persistence/round-tripping, and Graphviz DOT export for visualization.
//
// TGF format (one record per line, '#' comments, blank lines ignored):
//   task <name> exec=<int> [deadline=<int>] [phase=<int>] [period=<int>]
//   arc <from> <to> [items=<int>]
//
// A document is refused at the line that passes one of the size caps
// below, before the graph grows any further.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "parabb/taskgraph/graph.hpp"

namespace parabb {

/// The most tasks a TGF document may declare: the widest graph any
/// consumer accepts (TaskSet holds task ids 0..63, and
/// taskgraph/transforms.cpp refuses wider graphs).
inline constexpr int kMaxTgfTasks = 64;
/// The most arcs a DAG on kMaxTgfTasks tasks can have.
inline constexpr int kMaxTgfArcs = kMaxTgfTasks * (kMaxTgfTasks - 1) / 2;
/// The longest line, in bytes without its newline, a TGF document may hold.
inline constexpr std::size_t kMaxTgfLineBytes = 4096;

/// Serializes `graph` in the TGF text format.
std::string to_tgf(const TaskGraph& graph);

/// Parses a TGF document. Throws std::runtime_error with a line-numbered
/// message on malformed input or on a line past a size cap; validates the
/// result (acyclicity etc.).
TaskGraph from_tgf(const std::string& text);

/// Graphviz DOT with execution times as node labels and message sizes as
/// edge labels.
std::string to_dot(const TaskGraph& graph);

/// Convenience: write/read a TGF file.
void save_tgf(const TaskGraph& graph, const std::string& path);
TaskGraph load_tgf(const std::string& path);

}  // namespace parabb
