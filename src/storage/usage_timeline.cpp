#include "storage/usage_timeline.hpp"

#include <algorithm>
#include <array>

namespace vor::storage {

namespace {

UsageMap BuildUsageImpl(const core::Schedule& schedule,
                        const core::CostModel& cost_model,
                        std::size_t excluded_file) {
  UsageMap usage;
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    if (f == excluded_file) continue;
    const core::FileSchedule& file = schedule.files[f];
    for (std::size_t r = 0; r < file.residencies.size(); ++r) {
      const core::Residency& c = file.residencies[r];
      const core::ResidencyRef ref{f, r};
      usage[c.location].Add(cost_model.OccupancyPiece(c, ref.Pack()));
    }
  }
  return usage;
}

void SortUnique(std::vector<net::NodeId>& nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
}

bool TagBelongsTo(std::uint64_t tag, std::size_t file) {
  return core::ResidencyRef::Unpack(tag).file_index == file;
}

}  // namespace

UsageMap BuildUsage(const core::Schedule& schedule,
                    const core::CostModel& cost_model) {
  return BuildUsageImpl(schedule, cost_model, static_cast<std::size_t>(-1));
}

UsageMap BuildUsageExcludingFile(const core::Schedule& schedule,
                                 const core::CostModel& cost_model,
                                 std::size_t excluded_file) {
  return BuildUsageImpl(schedule, cost_model, excluded_file);
}

double PeakUsage(const UsageMap& usage, net::NodeId node) {
  const auto it = usage.find(node);
  return it == usage.end() ? 0.0 : it->second.Max();
}

const util::PiecewiseLinear* UsageView::Find(net::NodeId node) const {
  if (overlay_ != nullptr) {
    for (const auto& [overlay_node, timeline] : *overlay_) {
      if (overlay_node == node) {
        // An emptied overlay timeline behaves exactly like an absent node:
        // FitsUnder on an empty timeline reduces to the static height check.
        return &timeline;
      }
      if (overlay_node > node) break;  // sorted ascending
    }
  }
  if (base_ == nullptr) return nullptr;
  const auto it = base_->find(node);
  return it == base_->end() ? nullptr : &it->second;
}

namespace {

/// Shared aggregation step of the two tracker constructors.
void AddFileToUsage(const core::Schedule& schedule,
                    const core::CostModel& cost_model, std::size_t f,
                    UsageMap& usage, std::vector<net::NodeId>& nodes) {
  const core::FileSchedule& file = schedule.files[f];
  nodes.reserve(file.residencies.size());
  for (std::size_t r = 0; r < file.residencies.size(); ++r) {
    const core::Residency& c = file.residencies[r];
    const core::ResidencyRef ref{f, r};
    usage[c.location].Add(cost_model.OccupancyPiece(c, ref.Pack()));
    nodes.push_back(c.location);
  }
  SortUnique(nodes);
}

}  // namespace

UsageTracker::UsageTracker(const core::Schedule& schedule,
                           const core::CostModel& cost_model)
    : cost_model_(&cost_model), file_nodes_(schedule.files.size()) {
  // Same iteration order as BuildUsage, so per-node piece vectors come out
  // identical (ascending tag, since Pack is monotone in (file, residency)).
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    AddFileToUsage(schedule, cost_model, f, usage_, file_nodes_[f]);
  }
}

UsageTracker::UsageTracker(const core::Schedule& schedule,
                           const core::CostModel& cost_model,
                           const std::vector<std::size_t>& files)
    : cost_model_(&cost_model), file_nodes_(schedule.files.size()) {
  // Subset aggregation in ascending file order, so each node's pieces come
  // out in canonical ascending-tag order.  file_nodes_ stays indexed by
  // global file index; non-subset entries are empty, so ExcludingFile on
  // them degenerates to the plain aggregate view.
  for (const std::size_t f : files) {
    if (f >= schedule.files.size()) continue;
    AddFileToUsage(schedule, cost_model, f, usage_, file_nodes_[f]);
  }
}

UsageView UsageTracker::ExcludingFile(std::size_t file) const {
  if (file >= file_nodes_.size()) return UsageView(&usage_, nullptr);
  const std::vector<net::NodeId>& nodes = file_nodes_[file];

  // A cached overlay replays exactly: same host nodes, same generations
  // means the same base pieces minus the same file pieces, so both the
  // overlay timelines and their derived analyses are what a fresh build
  // would produce.
  const auto is_current = [&](const CachedOverlay& cached) {
    if (cached.nodes != nodes) return false;
    for (std::size_t i = 0; i < cached.nodes.size(); ++i) {
      if (NodeGeneration(cached.nodes[i]) != cached.generations[i]) {
        return false;
      }
    }
    return true;
  };
  {
    std::lock_guard<std::mutex> lock(overlay_mutex_);
    const auto it = overlay_cache_.find(file);
    if (it != overlay_cache_.end() && is_current(it->second)) {
      return UsageView(&usage_, it->second.overlay);
    }
  }

  // Build outside the lock — concurrent builders for the same file would
  // produce identical overlays, so last-writer-wins is harmless.
  auto overlay = std::make_shared<UsageView::Overlay>();
  overlay->reserve(nodes.size());
  // file_nodes_ is sorted, so the overlay comes out sorted by node id.
  // Each overlay timeline derives its sweep from the aggregate's cached
  // events in one linear pass, bit-identical to a fresh build.
  for (const net::NodeId node : nodes) {
    const auto it = usage_.find(node);
    if (it == usage_.end()) continue;
    overlay->emplace_back(node, it->second.WithoutTagsIf([file](std::uint64_t tag) {
      return TagBelongsTo(tag, file);
    }));
  }

  CachedOverlay cached;
  cached.overlay = overlay;
  cached.nodes = nodes;
  cached.generations.reserve(nodes.size());
  for (const net::NodeId node : nodes) {
    cached.generations.push_back(NodeGeneration(node));
  }
  {
    std::lock_guard<std::mutex> lock(overlay_mutex_);
    overlay_cache_.insert_or_assign(file, std::move(cached));
  }
  return UsageView(&usage_, std::move(overlay));
}

void UsageTracker::ApplyCommit(std::size_t file,
                               const core::FileSchedule& replacement) {
  if (file >= file_nodes_.size()) file_nodes_.resize(file + 1);

  // Geometry of the file's contribution per node, before and after.  A
  // node whose piece geometry is unchanged by the commit is invisible to
  // any consumer of the aggregate (queries never read tags), so its
  // generation must NOT advance — this keeps cached overlays alive when a
  // reschedule only reshapes part of the file's footprint.
  using Geometry = std::vector<std::array<double, 4>>;
  const auto geometry_at = [](const util::PiecewiseLinear& timeline,
                              std::size_t file_index) {
    Geometry geometry;
    for (const util::LinearPiece& p : timeline.pieces()) {
      if (TagBelongsTo(p.tag, file_index)) {
        geometry.push_back(
            {p.t0.value(), p.t1.value(), p.t2.value(), p.height});
      }
    }
    std::sort(geometry.begin(), geometry.end());
    return geometry;
  };

  std::unordered_map<net::NodeId, Geometry> before;
  before.reserve(file_nodes_[file].size());
  for (const net::NodeId node : file_nodes_[file]) {
    const auto it = usage_.find(node);
    if (it != usage_.end()) before.emplace(node, geometry_at(it->second, file));
  }

  // Drop the file's old pieces; removal is order-stable, so survivors keep
  // the canonical ascending-tag order.  Nodes left with no pieces are
  // erased to match what a fresh build would contain.
  for (const net::NodeId node : file_nodes_[file]) {
    const auto it = usage_.find(node);
    if (it == usage_.end()) continue;
    it->second.RemoveTagsIf([file](std::uint64_t tag) { return TagBelongsTo(tag, file); });
    if (it->second.empty()) usage_.erase(it);
  }

  std::vector<net::NodeId> fresh_nodes;
  fresh_nodes.reserve(replacement.residencies.size());
  for (std::size_t r = 0; r < replacement.residencies.size(); ++r) {
    const core::Residency& c = replacement.residencies[r];
    const core::ResidencyRef ref{file, r};
    usage_[c.location].InsertSortedByTag(cost_model_->OccupancyPiece(c, ref.Pack()));
    fresh_nodes.push_back(c.location);
  }
  SortUnique(fresh_nodes);

  std::vector<net::NodeId> touched = file_nodes_[file];
  touched.insert(touched.end(), fresh_nodes.begin(), fresh_nodes.end());
  SortUnique(touched);
  for (const net::NodeId node : touched) {
    const auto before_it = before.find(node);
    const Geometry old_geometry =
        before_it == before.end() ? Geometry{} : std::move(before_it->second);
    Geometry new_geometry;
    if (const auto it = usage_.find(node); it != usage_.end()) {
      new_geometry = geometry_at(it->second, file);
    }
    if (old_geometry != new_geometry) ++generations_[node];
  }

  file_nodes_[file] = std::move(fresh_nodes);
}

std::uint64_t UsageTracker::NodeGeneration(net::NodeId node) const {
  const auto it = generations_.find(node);
  return it == generations_.end() ? 0 : it->second;
}

}  // namespace vor::storage
