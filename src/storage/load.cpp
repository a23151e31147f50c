#include "storage/load.hpp"

#include <algorithm>
#include <array>
#include <map>

#include "net/routing.hpp"

namespace vor::storage {

namespace {

bool BelongsTo(std::uint64_t tag, std::size_t file) {
  return core::ResidencyRef::Unpack(tag).file_index == file;
}

/// A file's pieces at one key, in piece order: what a commit must leave
/// unchanged for the key's generation to stay put.  Queries never read
/// tags, so geometry and order are all that matter.
std::vector<std::array<double, 4>> FileGeometry(
    const util::PiecewiseLinear& timeline, std::size_t file) {
  std::vector<std::array<double, 4>> geometry;
  for (const util::LinearPiece& p : timeline.pieces()) {
    if (BelongsTo(p.tag, file)) {
      geometry.push_back({p.t0.value(), p.t1.value(), p.t2.value(), p.height});
    }
  }
  return geometry;
}

}  // namespace

bool HasStreamCaps(const net::Topology& topology) {
  for (const net::Link& l : topology.links()) {
    if (l.bandwidth_cap.value() > 0.0) return true;
  }
  for (const net::NodeInfo& n : topology.nodes()) {
    if (n.kind == net::NodeKind::kStorage && n.io_cap.value() > 0.0) {
      return true;
    }
  }
  return false;
}

const util::PiecewiseLinear& LoadView::Find(std::size_t key) const {
  if (!space_ && load_->keys()[key].kind == LoadKey::Kind::kSpace) {
    // FitsUnder on an empty timeline is the static height check.
    static const util::PiecewiseLinear kEmpty;
    return kEmpty;
  }
  if (overlay_ != nullptr) {
    for (const auto& [overlay_key, timeline] : *overlay_) {
      if (overlay_key == key) return timeline;
      if (overlay_key > key) break;
    }
  }
  return load_->timeline(key);
}

Load::Load(const core::Schedule& schedule, const core::CostModel& cost_model,
           Resources resources)
    : Load(schedule, cost_model, {}, resources) {
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    Place(f, schedule.files[f], /*sorted=*/false);
  }
}

Load::Load(const core::Schedule& schedule, const core::CostModel& cost_model,
           const std::vector<std::size_t>& files, Resources resources)
    : cost_model_(&cost_model) {
  const net::Topology& topology = cost_model.topology();
  const auto holds = [resources](Resources r) {
    return (static_cast<unsigned>(resources) & static_cast<unsigned>(r)) != 0;
  };
  space_key_.assign(topology.node_count(), kNoKey);
  serving_key_.assign(topology.node_count(), kNoKey);
  if (holds(Resources::kSpace)) {
    for (const net::NodeInfo& n : topology.nodes()) {
      if (n.kind != net::NodeKind::kStorage) continue;
      space_key_[n.id] = keys_.size();
      keys_.push_back({LoadKey::Kind::kSpace, n.id, net::kInvalidNode,
                       n.capacity.value()});
    }
  }
  first_link_ = keys_.size();
  if (holds(Resources::kStreams)) {
    // Parallel capped links between one pair share the key and keep the
    // larger cap (the paper topology has no parallel links).
    std::map<std::pair<net::NodeId, net::NodeId>, double> links;
    for (const net::Link& l : topology.links()) {
      const double cap = l.bandwidth_cap.value();
      if (cap <= 0.0) continue;
      double& shared = links[{std::min(l.a, l.b), std::max(l.a, l.b)}];
      shared = std::max(shared, cap);
    }
    for (const auto& [ends, cap] : links) {
      keys_.push_back({LoadKey::Kind::kLink, ends.first, ends.second, cap});
    }
  }
  first_serving_ = keys_.size();
  if (holds(Resources::kStreams)) {
    for (const net::NodeInfo& n : topology.nodes()) {
      if (n.kind != net::NodeKind::kStorage || n.io_cap.value() <= 0.0) {
        continue;
      }
      serving_key_[n.id] = keys_.size();
      keys_.push_back({LoadKey::Kind::kServing, n.id, net::kInvalidNode,
                       n.io_cap.value()});
    }
  }
  timelines_.resize(keys_.size());
  generations_.assign(keys_.size(), 0);
  file_keys_.resize(schedule.files.size());
  for (const std::size_t f : files) {
    if (f < schedule.files.size()) {
      Place(f, schedule.files[f], /*sorted=*/false);
    }
  }
}

std::size_t Load::SpaceKey(net::NodeId node) const {
  return node < space_key_.size() ? space_key_[node] : kNoKey;
}

std::size_t Load::ServingKey(net::NodeId node) const {
  return node < serving_key_.size() ? serving_key_[node] : kNoKey;
}

std::size_t Load::LinkKey(net::NodeId a, net::NodeId b) const {
  const std::pair<net::NodeId, net::NodeId> ends{std::min(a, b),
                                                 std::max(a, b)};
  const auto first = keys_.begin() + static_cast<std::ptrdiff_t>(first_link_);
  const auto last = keys_.begin() + static_cast<std::ptrdiff_t>(first_serving_);
  const auto it = std::lower_bound(
      first, last, ends, [](const LoadKey& k, const auto& e) {
        return std::pair{k.node, k.peer} < e;
      });
  if (it == last || it->node != ends.first || it->peer != ends.second) {
    return kNoKey;
  }
  return static_cast<std::size_t>(it - keys_.begin());
}

double Load::SpacePeak(net::NodeId node) const {
  const std::size_t key = SpaceKey(node);
  return key == kNoKey ? 0.0 : timelines_[key].Max();
}

util::LinearPiece Load::StreamPiece(media::VideoId video, util::Seconds t,
                                    std::size_t file) const {
  const media::Video& v = cost_model_->catalog().video(video);
  const util::Seconds end = t + v.playback;
  return util::LinearPiece{t, end, end, v.bandwidth.value(),
                           core::ResidencyRef{file, 0}.Pack()};
}

void Load::Place(std::size_t file, const core::FileSchedule& plan,
                 bool sorted) {
  std::vector<std::size_t>& keys = file_keys_[file];
  const auto put = [&](std::size_t key, const util::LinearPiece& piece) {
    if (sorted) {
      timelines_[key].InsertSortedByTag(piece);
    } else {
      timelines_[key].Add(piece);
    }
    keys.push_back(key);
  };
  for (std::size_t r = 0; r < plan.residencies.size(); ++r) {
    const core::Residency& c = plan.residencies[r];
    const std::size_t key = SpaceKey(c.location);
    if (key != kNoKey) {
      put(key, cost_model_->OccupancyPiece(c, plan.video,
                                           core::ResidencyRef{file, r}.Pack()));
    }
  }
  if (holds_streams()) {
    for (const core::Delivery& d : plan.deliveries) {
      const util::LinearPiece piece = StreamPiece(plan.video, d.start, file);
      ForEachStreamKey(d.route, [&](std::size_t key) { put(key, piece); });
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

LoadView Load::Excluding(std::size_t file, bool space) const {
  if (file >= file_keys_.size() || file_keys_[file].empty()) {
    return LoadView(this, nullptr, file, space);
  }
  const std::vector<std::size_t>& keys = file_keys_[file];

  // A cached overlay replays exactly: same keys at the same generations
  // means the same pieces minus the same file's, so both the overlay
  // timelines and their derived analyses are what a fresh build gives.
  const auto is_current = [&](const CachedOverlay& cached) {
    if (cached.keys != keys) return false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (generations_[keys[i]] != cached.generations[i]) return false;
    }
    return true;
  };
  {
    std::lock_guard<std::mutex> lock(overlay_mutex_);
    const auto it = overlay_cache_.find(file);
    if (it != overlay_cache_.end() && is_current(it->second)) {
      return LoadView(this, it->second.overlay, file, space);
    }
  }

  // Derive outside the lock; concurrent callers for one file derive
  // identical overlays, so the last writer winning is harmless.
  auto overlay = std::make_shared<LoadView::Overlay>();
  overlay->reserve(keys.size());
  for (const std::size_t key : keys) {
    overlay->emplace_back(key, timelines_[key].WithoutTagsIf(
                                   [file](std::uint64_t tag) {
                                     return BelongsTo(tag, file);
                                   }));
  }
  CachedOverlay cached;
  cached.overlay = overlay;
  cached.keys = keys;
  cached.generations.reserve(keys.size());
  for (const std::size_t key : keys) {
    cached.generations.push_back(generations_[key]);
  }
  {
    std::lock_guard<std::mutex> lock(overlay_mutex_);
    overlay_cache_.insert_or_assign(file, std::move(cached));
  }
  return LoadView(this, std::move(overlay), file, space);
}

void Load::ApplyCommit(std::size_t file, const core::FileSchedule& plan) {
  if (file >= file_keys_.size()) file_keys_.resize(file + 1);

  // Drop the file's pieces; removal is order-stable, so the survivors
  // keep their canonical order.
  std::map<std::size_t, std::vector<std::array<double, 4>>> before;
  for (const std::size_t key : file_keys_[file]) {
    before.emplace(key, FileGeometry(timelines_[key], file));
    timelines_[key].RemoveTagsIf(
        [file](std::uint64_t tag) { return BelongsTo(tag, file); });
  }
  file_keys_[file].clear();
  Place(file, plan, /*sorted=*/true);

  // A key where the file's pieces are unchanged is invisible to every
  // query, so its generation must not advance: cached overlays of other
  // files at that key stay valid.
  for (const std::size_t key : file_keys_[file]) before.try_emplace(key);
  for (const auto& [key, geometry] : before) {
    if (FileGeometry(timelines_[key], file) != geometry) ++generations_[key];
  }
}

bool LoadView::ResidencyFits(net::NodeId node,
                             const util::LinearPiece& piece) const {
  const std::size_t key = load_->SpaceKey(node);
  return key == Load::kNoKey ||
         Find(key).FitsUnder(piece, load_->keys()[key].cap);
}

const util::PiecewiseLinear& LoadDelta::Find(std::size_t key) const {
  for (const auto& [own_key, timeline] : own_) {
    if (own_key == key) return timeline;
    if (own_key > key) break;
  }
  return view_->Find(key);
}

bool LoadDelta::RouteFits(std::span<const net::NodeId> route,
                          util::Seconds t, media::VideoId video) const {
  const Load& load = view_->load();
  const util::LinearPiece piece = load.StreamPiece(video, t, view_->file());
  bool fits = true;
  load.ForEachStreamKey(route, [&](std::size_t key) {
    fits = fits && Find(key).FitsUnder(piece, load.keys()[key].cap);
  });
  return fits;
}

void LoadDelta::AddStream(const core::Delivery& d, media::VideoId video) {
  const Load& load = view_->load();
  const util::LinearPiece piece =
      load.StreamPiece(video, d.start, view_->file());
  load.ForEachStreamKey(d.route, [&](std::size_t key) {
    auto it = std::lower_bound(
        own_.begin(), own_.end(), key,
        [](const auto& entry, std::size_t k) { return entry.first < k; });
    if (it == own_.end() || it->first != key) {
      // First write to this key: copy the view's pieces (not its
      // analysis, which the insert below would invalidate anyway).
      it = own_.emplace(it, key, view_->Find(key));
    }
    it->second.InsertSortedByTag(piece);
  });
}

std::vector<std::size_t> LoadDelta::Touched() const {
  std::vector<std::size_t> keys;
  keys.reserve(own_.size());
  for (const auto& entry : own_) keys.push_back(entry.first);
  return keys;
}

StreamReport MeasureStreams(const core::Schedule& schedule,
                            const net::Topology& topology,
                            const media::Catalog& catalog) {
  const net::Router router(topology);
  const core::CostModel cost_model(topology, router, catalog);
  Load load(schedule, cost_model, /*files=*/{}, Resources::kStreams);
  StreamReport report;
  // Replay in file order: each file's streams meet every earlier file's
  // and its own earlier ones.
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    const LoadView others = load.Excluding(f);
    LoadDelta run(others);
    const media::VideoId video = schedule.files[f].video;
    for (const core::Delivery& d : schedule.files[f].deliveries) {
      if (!run.RouteFits(d.route, d.start, video)) ++report.forced_requests;
      run.AddStream(d, video);
    }
    load.ApplyCommit(f, schedule.files[f]);
  }
  for (std::size_t key = 0; key < load.keys().size(); ++key) {
    const LoadKey& k = load.keys()[key];
    const double peak = load.timeline(key).Max();
    if (peak > k.cap * (1.0 + 1e-12)) {
      ++(k.kind == LoadKey::Kind::kLink ? report.overloaded_links
                                        : report.overloaded_nodes);
    }
    report.worst_utilization = std::max(report.worst_utilization, peak / k.cap);
  }
  return report;
}

}  // namespace vor::storage
