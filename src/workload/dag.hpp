// Application model: a DAG of serverless functions with a single entry node
// (the paper's workflows are pipelines or DAGs with splits/joins; the
// dominator machinery in src/core requires a single source, which every
// serverless workflow has — the node triggered by the user request).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace esg::workload {

/// Index of a node inside one AppDag.
using NodeIndex = std::size_t;

struct DagNode {
  FunctionId function;
  std::vector<NodeIndex> successors;
  std::vector<NodeIndex> predecessors;
};

class AppDag {
 public:
  AppDag(AppId id, std::string name) : id_(id), name_(std::move(name)) {}

  /// Adds a node running `function`; returns its index.
  NodeIndex add_node(FunctionId function);

  /// Adds the edge from -> to. Both must exist; self-edges are rejected.
  void add_edge(NodeIndex from, NodeIndex to);

  /// Validates: non-empty, acyclic, node 0 is the unique source, and every
  /// node is reachable from it. Throws std::invalid_argument otherwise.
  void validate() const;

  [[nodiscard]] AppId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const DagNode& node(NodeIndex i) const { return nodes_.at(i); }
  [[nodiscard]] const std::vector<DagNode>& nodes() const { return nodes_; }

  [[nodiscard]] NodeIndex entry() const { return 0; }
  /// Nodes with no successors.
  [[nodiscard]] std::vector<NodeIndex> sinks() const;
  /// True if the DAG is a simple chain f0 -> f1 -> ... -> fn.
  [[nodiscard]] bool is_linear() const;
  /// A topological order starting at the entry (validated DAGs only).
  [[nodiscard]] std::vector<NodeIndex> topo_order() const;

 private:
  AppId id_;
  std::string name_;
  std::vector<DagNode> nodes_;
};

/// The longest entry-to-sink path of a validated `dag` when node i takes
/// node_ms[i] >= 0: the latest finish over the topological order, each node
/// starting when its last predecessor finishes (for a pipeline, the sum).
[[nodiscard]] TimeMs longest_path_ms(const AppDag& dag,
                                     std::span<const TimeMs> node_ms);

/// Builds a linear pipeline from an ordered list of functions.
[[nodiscard]] AppDag make_pipeline(AppId id, std::string name,
                                   const std::vector<FunctionId>& functions);

}  // namespace esg::workload
