#include "src/can/partition_tree.hpp"

#include <array>

namespace soc::can {

PartitionTree::PartitionTree(std::size_t dims, NodeId first_owner)
    : dims_(dims), root_(std::make_unique<TreeNode>()) {
  SOC_CHECK(dims > 0 && dims <= kMaxDims);
  SOC_CHECK(first_owner.valid());
  root_->owner = first_owner;
  leaves_.emplace(first_owner, root_.get());
}

PartitionTree::TreeNode* PartitionTree::leaf_for(NodeId id) const {
  TreeNode* const* it = leaves_.find(id);
  SOC_CHECK_MSG(it != nullptr, "unknown owner");
  SOC_DCHECK((*it)->is_leaf());
  return *it;
}

NodeId PartitionTree::owner_of(const Point& p) const {
  // Descend with the running box.  Its midpoint is the expression
  // Zone::split halves at, and every midpoint is below 1, so for p inside
  // the box the lower half contains p exactly when p[d] < mid.
  std::array<double, kMaxDims> lo{};
  std::array<double, kMaxDims> hi;
  hi.fill(1.0);
  const TreeNode* t = root_.get();
  while (!t->is_leaf()) {
    const std::size_t d = t->depth % dims_;
    const double mid = 0.5 * (lo[d] + hi[d]);
    if (p[d] < mid) {
      hi[d] = mid;
      t = t->left.get();
    } else {
      lo[d] = mid;
      t = t->right.get();
    }
  }
  return t->owner;
}

std::size_t PartitionTree::split_dim(NodeId owner) const {
  return leaf_for(owner)->depth % dims_;
}

void PartitionTree::split(NodeId owner, NodeId joiner, bool joiner_lower) {
  SOC_CHECK(joiner.valid());
  SOC_CHECK_MSG(!leaves_.contains(joiner), "joiner already owns a zone");
  TreeNode* leaf = leaf_for(owner);

  leaf->left = std::make_unique<TreeNode>();
  leaf->right = std::make_unique<TreeNode>();
  for (TreeNode* child : {leaf->left.get(), leaf->right.get()}) {
    child->parent = leaf;
    child->depth = leaf->depth + 1;
  }

  TreeNode* joiner_leaf = joiner_lower ? leaf->left.get() : leaf->right.get();
  TreeNode* owner_leaf = joiner_lower ? leaf->right.get() : leaf->left.get();
  joiner_leaf->owner = joiner;
  owner_leaf->owner = owner;
  leaf->owner = NodeId{};

  leaves_[owner] = owner_leaf;
  leaves_.emplace(joiner, joiner_leaf);
}

PartitionTree::TreeNode* PartitionTree::find_sibling_leaf_pair(TreeNode* t) {
  // Descend to the deepest internal node whose two children are leaves;
  // biased left for determinism.  Any binary tree has such a node.
  while (!(t->left->is_leaf() && t->right->is_leaf())) {
    t = !t->left->is_leaf() ? t->left.get() : t->right.get();
  }
  return t;
}

PartitionTree::Repair PartitionTree::leave(NodeId owner) {
  SOC_CHECK_MSG(leaf_count() > 1, "cannot remove the last owner");
  TreeNode* leaf = leaf_for(owner);
  leaves_.erase(owner);

  TreeNode* parent = leaf->parent;
  SOC_CHECK(parent != nullptr);
  TreeNode* sibling =
      parent->left.get() == leaf ? parent->right.get() : parent->left.get();

  Repair repair{NodeId{}, NodeId{}, NodeId{}};

  if (sibling->is_leaf()) {
    // Simple case: sibling's owner takes over the merged parent zone.
    const NodeId heir = sibling->owner;
    parent->owner = heir;
    parent->left.reset();
    parent->right.reset();
    leaves_[heir] = parent;
    repair.merge_survivor = heir;
    repair.merged_from = owner;
    leaves_.maybe_compact();  // values are TreeNode*; no references held
    return repair;
  }

  // General case: find a pair of sibling leaves (y, z) inside the sibling
  // subtree; merge them under z; y becomes free and takes over the departed
  // leaf's zone unchanged.  Every node keeps exactly one valid zone.
  TreeNode* pair_parent = find_sibling_leaf_pair(sibling);
  const NodeId y = pair_parent->left->owner;
  const NodeId z = pair_parent->right->owner;
  pair_parent->owner = z;
  pair_parent->left.reset();
  pair_parent->right.reset();
  leaves_[z] = pair_parent;

  leaf->owner = y;
  leaves_[y] = leaf;

  repair.merge_survivor = z;
  repair.merged_from = y;
  repair.reassigned_to = y;
  leaves_.maybe_compact();  // values are TreeNode*; no references held
  return repair;
}

}  // namespace soc::can
