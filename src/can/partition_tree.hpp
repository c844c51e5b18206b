// The binary partition tree underlying the CAN space.  Every zone split on
// node join adds two children; node departures repair the tree so that each
// live node owns exactly one valid (binary-split-shaped) zone — this is the
// "binary partition tree based background zone reassignment algorithm"
// ([14], used by the paper for its node-churning experiments).
//
// The tree keeps only the split topology.  A node's zone is fixed by its
// path: each level halves its parent's box at the midpoint along
// depth % dims (Zone::split), so the zones themselves live once, in
// CanSpace's packed rows, and owner_of() recomputes the box as it descends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/can/geometry.hpp"
#include "src/common/dense_node_map.hpp"
#include "src/common/types.hpp"

namespace soc::can {

class PartitionTree {
 public:
  struct TreeNode {
    TreeNode* parent = nullptr;
    std::unique_ptr<TreeNode> left, right;  ///< lower and upper half
    std::uint32_t depth = 0;
    NodeId owner;  // valid iff leaf

    [[nodiscard]] bool is_leaf() const { return !left; }
  };

  /// Outcome of a departure repair, so the membership layer can move
  /// records and fix neighbor sets.
  struct Repair {
    /// Node whose zone grew by a merge (absorbs `merged_from`'s old zone),
    /// or invalid when no merge happened (single-node tree).
    NodeId merge_survivor;
    NodeId merged_from;
    /// Node that took over the departed leaf's (unchanged) zone, or invalid
    /// when the departed zone was merged away directly.
    NodeId reassigned_to;
  };

  PartitionTree(std::size_t dims, NodeId first_owner);

  [[nodiscard]] std::size_t dims() const { return dims_; }
  [[nodiscard]] std::size_t leaf_count() const { return leaves_.size(); }
  /// Storage density of the leaf map (slot_span/size; BENCH metric).
  [[nodiscard]] double span_ratio() const { return leaves_.span_ratio(); }
  [[nodiscard]] bool contains_owner(NodeId id) const {
    return leaves_.contains(id);
  }

  /// Owner of the leaf containing p, a point of the unit cube (tree
  /// descent: one coordinate comparison per level).
  [[nodiscard]] NodeId owner_of(const Point& p) const;

  /// The dimension split() halves `owner`'s zone along: depth % dims, the
  /// original CAN's cyclic split order.
  [[nodiscard]] std::size_t split_dim(NodeId owner) const;

  /// Split the leaf owned by `owner` along split_dim(owner).  `joiner`
  /// receives the lower half when `joiner_lower`, else the upper half;
  /// `owner` keeps the other.
  void split(NodeId owner, NodeId joiner, bool joiner_lower);

  /// Remove `owner`'s leaf and repair the tree.  Requires leaf_count() > 1.
  Repair leave(NodeId owner);

  /// Bytes claimed by the tree nodes plus the leaf map
  /// (attribution-profiler hook; O(nodes) walk, report-time only).
  [[nodiscard]] std::size_t mem_bytes() const {
    std::size_t n = 0;
    std::vector<const TreeNode*> stack;
    stack.push_back(root_.get());
    while (!stack.empty()) {
      const TreeNode* t = stack.back();
      stack.pop_back();
      if (t == nullptr) continue;
      ++n;
      stack.push_back(t->left.get());
      stack.push_back(t->right.get());
    }
    return n * sizeof(TreeNode) + leaves_.mem_bytes();
  }

 private:
  TreeNode* leaf_for(NodeId id) const;
  /// Deepest leftmost pair of sibling leaves in the subtree rooted at t.
  static TreeNode* find_sibling_leaf_pair(TreeNode* t);

  std::size_t dims_;
  std::unique_ptr<TreeNode> root_;
  DenseNodeMap<TreeNode*> leaves_;  ///< dense by NodeId
};

}  // namespace soc::can
