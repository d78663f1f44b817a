#include "workload/dag.hpp"

#include <algorithm>
#include <stdexcept>

namespace esg::workload {

NodeIndex AppDag::add_node(FunctionId function) {
  nodes_.push_back(DagNode{function, {}, {}});
  return nodes_.size() - 1;
}

void AppDag::add_edge(NodeIndex from, NodeIndex to) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw std::invalid_argument("AppDag::add_edge: node out of range");
  }
  if (from == to) throw std::invalid_argument("AppDag::add_edge: self edge");
  auto& succ = nodes_[from].successors;
  if (std::find(succ.begin(), succ.end(), to) != succ.end()) {
    throw std::invalid_argument("AppDag::add_edge: duplicate edge");
  }
  succ.push_back(to);
  nodes_[to].predecessors.push_back(from);
}

void AppDag::validate() const {
  if (nodes_.empty()) throw std::invalid_argument("AppDag: empty DAG");
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].predecessors.empty()) {
      throw std::invalid_argument("AppDag: node " + std::to_string(i) +
                                  " is an extra source (entry must be unique)");
    }
  }
  if (!nodes_[0].predecessors.empty()) {
    throw std::invalid_argument("AppDag: entry node has predecessors");
  }
  // Kahn's algorithm detects cycles and counts reachability at once.
  const auto order = topo_order();
  if (order.size() != nodes_.size()) {
    throw std::invalid_argument("AppDag: cyclic or partially unreachable DAG");
  }
}

std::vector<NodeIndex> AppDag::sinks() const {
  std::vector<NodeIndex> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].successors.empty()) out.push_back(i);
  }
  return out;
}

bool AppDag::is_linear() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].successors.size() > 1 || nodes_[i].predecessors.size() > 1) {
      return false;
    }
  }
  return true;
}

std::vector<NodeIndex> AppDag::topo_order() const {
  std::vector<std::size_t> indegree(nodes_.size(), 0);
  for (const auto& n : nodes_) {
    for (NodeIndex s : n.successors) ++indegree[s];
  }
  std::vector<NodeIndex> frontier;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) frontier.push_back(i);
  }
  std::vector<NodeIndex> order;
  order.reserve(nodes_.size());
  while (!frontier.empty()) {
    // Pop the smallest index for a deterministic order.
    auto it = std::min_element(frontier.begin(), frontier.end());
    const NodeIndex u = *it;
    frontier.erase(it);
    order.push_back(u);
    for (NodeIndex v : nodes_[u].successors) {
      if (--indegree[v] == 0) frontier.push_back(v);
    }
  }
  return order;
}

TimeMs longest_path_ms(const AppDag& dag, std::span<const TimeMs> node_ms) {
  std::vector<TimeMs> finish(dag.size(), 0.0);
  TimeMs longest = 0.0;
  for (const NodeIndex u : dag.topo_order()) {
    TimeMs start = 0.0;
    for (const NodeIndex p : dag.node(u).predecessors) {
      start = std::max(start, finish[p]);
    }
    finish[u] = start + node_ms[u];
    longest = std::max(longest, finish[u]);
  }
  return longest;
}

AppDag make_pipeline(AppId id, std::string name,
                     const std::vector<FunctionId>& functions) {
  if (functions.empty()) {
    throw std::invalid_argument("make_pipeline: no functions");
  }
  AppDag dag(id, std::move(name));
  for (FunctionId f : functions) dag.add_node(f);
  for (std::size_t i = 0; i + 1 < functions.size(); ++i) {
    dag.add_edge(i, i + 1);
  }
  dag.validate();
  return dag;
}

}  // namespace esg::workload
