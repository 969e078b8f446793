// mpx/task/graph.hpp
//
// Dependency task graph driven by ONE progress hook. The paper's §4.2
// observation: applications know their dependency structure, so they can
// skip polling tasks whose prerequisites have not finished — the graph polls
// only READY nodes, keeping per-progress cost proportional to the frontier,
// not the graph size.
#pragma once

#include <functional>
#include <vector>

#include "mpx/base/spinlock.hpp"
#include "mpx/core/async.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx::task {

/// Static task graph: build nodes + edges, then launch(). A node is a poll
/// callable returning done when its work finished; it is polled (from within
/// stream progress) only once all its dependencies completed.
class TaskGraph {
 public:
  using NodeId = std::size_t;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Add a node with dependencies on previously-added nodes.
  NodeId add(std::function<AsyncResult()> poll,
             std::initializer_list<NodeId> deps = {});
  NodeId add(std::function<AsyncResult()> poll,
             const std::vector<NodeId>& deps);

  /// Hand the graph to the progress engine. Call once; no adds afterwards.
  void launch(const Stream& stream);

  /// True once every node completed (one atomic read).
  bool done() const { return done_.load(std::memory_order_acquire); }

  /// Drive `stream`'s progress until the whole graph completed.
  void wait(const Stream& stream) const {
    progress_until(stream, [this] { return done(); });
  }

 private:
  struct Node {
    std::function<AsyncResult()> poll;
    std::vector<NodeId> dependents;
    int missing_deps = 0;
    bool completed = false;
  };

  AsyncResult poll();
  static AsyncResult trampoline(AsyncThing& thing);

  std::vector<Node> nodes_;
  std::vector<NodeId> ready_;
  std::size_t completed_count_ = 0;
  bool launched_ = false;
  std::atomic<bool> done_{false};
};

}  // namespace mpx::task
