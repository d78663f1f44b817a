#include "workload/dag.hpp"

#include <gtest/gtest.h>

#include "profile/function_spec.hpp"

namespace esg::workload {
namespace {

FunctionId fn(int i) { return FunctionId(static_cast<std::uint32_t>(i)); }

TEST(AppDag, PipelineBuilder) {
  const AppDag dag = make_pipeline(AppId(0), "p", {fn(0), fn(1), fn(2)});
  EXPECT_EQ(dag.size(), 3u);
  EXPECT_TRUE(dag.is_linear());
  EXPECT_EQ(dag.entry(), 0u);
  EXPECT_EQ(dag.sinks(), (std::vector<NodeIndex>{2}));
  EXPECT_EQ(dag.node(0).successors, (std::vector<NodeIndex>{1}));
  EXPECT_EQ(dag.node(2).predecessors, (std::vector<NodeIndex>{1}));
}

TEST(AppDag, EmptyPipelineThrows) {
  EXPECT_THROW(make_pipeline(AppId(0), "p", {}), std::invalid_argument);
}

TEST(AppDag, RejectsSelfEdge) {
  AppDag dag(AppId(0), "x");
  dag.add_node(fn(0));
  EXPECT_THROW(dag.add_edge(0, 0), std::invalid_argument);
}

TEST(AppDag, RejectsDuplicateEdge) {
  AppDag dag(AppId(0), "x");
  dag.add_node(fn(0));
  dag.add_node(fn(1));
  dag.add_edge(0, 1);
  EXPECT_THROW(dag.add_edge(0, 1), std::invalid_argument);
}

TEST(AppDag, RejectsOutOfRangeEdge) {
  AppDag dag(AppId(0), "x");
  dag.add_node(fn(0));
  EXPECT_THROW(dag.add_edge(0, 5), std::invalid_argument);
}

TEST(AppDag, ValidateRejectsEmpty) {
  AppDag dag(AppId(0), "x");
  EXPECT_THROW(dag.validate(), std::invalid_argument);
}

TEST(AppDag, ValidateRejectsSecondSource) {
  AppDag dag(AppId(0), "x");
  dag.add_node(fn(0));
  dag.add_node(fn(1));
  dag.add_node(fn(2));
  dag.add_edge(0, 2);
  dag.add_edge(1, 2);  // node 1 is a second source
  EXPECT_THROW(dag.validate(), std::invalid_argument);
}

TEST(AppDag, ValidateRejectsEntryWithPredecessors) {
  AppDag dag(AppId(0), "x");
  dag.add_node(fn(0));
  dag.add_node(fn(1));
  dag.add_edge(0, 1);
  dag.add_edge(1, 0);  // cycle back into the entry
  EXPECT_THROW(dag.validate(), std::invalid_argument);
}

TEST(AppDag, ValidateAcceptsDiamond) {
  AppDag dag(AppId(0), "diamond");
  for (int i = 0; i < 4; ++i) dag.add_node(fn(i));
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(1, 3);
  dag.add_edge(2, 3);
  EXPECT_NO_THROW(dag.validate());
  EXPECT_FALSE(dag.is_linear());
  EXPECT_EQ(dag.sinks(), (std::vector<NodeIndex>{3}));
}

TEST(AppDag, TopoOrderRespectsEdges) {
  AppDag dag(AppId(0), "diamond");
  for (int i = 0; i < 4; ++i) dag.add_node(fn(i));
  dag.add_edge(0, 2);
  dag.add_edge(0, 1);
  dag.add_edge(2, 3);
  dag.add_edge(1, 3);
  const auto order = dag.topo_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeIndex u = 0; u < dag.size(); ++u) {
    for (NodeIndex v : dag.node(u).successors) {
      EXPECT_LT(pos[u], pos[v]);
    }
  }
}

TEST(AppDag, LongestPathOfASplitJoinDag) {
  // 0 -> {1, 2}, 1 -> 3, 2 -> {3, 4}: a split, a join and a second sink.
  AppDag dag(AppId(0), "split-join");
  for (int i = 0; i < 5; ++i) dag.add_node(fn(i));
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(1, 3);
  dag.add_edge(2, 3);
  dag.add_edge(2, 4);
  dag.validate();
  const std::vector<TimeMs> node_ms = {10.0, 50.0, 20.0, 5.0, 70.0};
  // 0 -> 2 -> 4 (100 ms) beats the join's 0 -> 1 -> 3 (65 ms); the stages
  // sum to 155 ms.
  EXPECT_EQ(longest_path_ms(dag, node_ms), 100.0);
  const std::vector<TimeMs> join_ms = {10.0, 50.0, 20.0, 5.0, 1.0};
  EXPECT_EQ(longest_path_ms(dag, join_ms), 65.0);
  // A pipeline's longest path is the sum of its stages.
  const AppDag chain = make_pipeline(AppId(1), "p", {fn(0), fn(1), fn(2)});
  EXPECT_EQ(longest_path_ms(chain, std::vector<TimeMs>{1.5, 2.0, 4.0}), 7.5);
}

TEST(AppDag, MultiSinkDag) {
  AppDag dag(AppId(1), "fork");
  for (int i = 0; i < 3; ++i) dag.add_node(fn(i));
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  EXPECT_NO_THROW(dag.validate());
  EXPECT_EQ(dag.sinks(), (std::vector<NodeIndex>{1, 2}));
}

}  // namespace
}  // namespace esg::workload
