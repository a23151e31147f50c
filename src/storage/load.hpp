// The load a schedule puts on the topology's capacity-bearing resources:
// storage space and streams, in one keyed aggregate.
//
// A key is one resource with a capacity:
//   * kSpace, one per IS: the sum of its residencies' reserved-space
//     profiles (Eq. 6).  Where it exceeds the IS's capacity the schedule
//     has a Storage Overflow (Sec. 3.3).
//   * kLink, one per link with a bandwidth_cap, and kServing, one per IS
//     with an io_cap (the paper's Sec. 6 future work).  A delivery
//     occupies its title's bandwidth on every link of its route, and on
//     its origin's serving I/O, for the playback window [t, t + playback):
//     a rectangle piece (t1 == t2).  The warehouse is never capped, and a
//     cap <= 0 means no key.
// Keys come in a fixed order: space by node id, then links by endpoint
// pair, then serving I/O by node id.
//
// Piece tags name files.  A residency's piece carries ResidencyRef::Pack()
// of (file, residency); a stream's carries the pack of (file, 0), one tag
// per file, since a per-delivery index would overflow the 20-bit residency
// field for a title with more than 2^20 requests.  Each key keeps its
// pieces in ascending tag order, ties in insertion order.  A build in file
// order produces that order and ApplyCommit keeps it, so the aggregate
// answers every query bit-identically to a fresh build.
//
// Excluding(f) is the aggregate without file f, as a view.  The keys where
// f has pieces get an overlay timeline, derived from the aggregate's
// sorted events in one linear pass (PiecewiseLinear::WithoutTagsIf); every
// other key reads the aggregate itself.  Overlays are cached per file and
// checked against per-key generations, so repeat dry runs of one file
// share one immutable overlay, analysis included, until a commit changes
// one of its keys.
//
// LoadDelta is a greedy run's own streams on top of a view.  The run's
// first stream on a key copies that key's timeline into the delta; keys
// the run never writes are read from the view, uncopied.  Each stream
// lands at the run's file position, where a fresh build of the schedule
// with the run's plan in that file's slot would put it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "util/piecewise.hpp"
#include "util/units.hpp"

namespace vor::storage {

/// True when the topology declares any bandwidth_cap or storage io_cap.
[[nodiscard]] bool HasStreamCaps(const net::Topology& topology);

/// One capacity-bearing resource.
struct LoadKey {
  enum class Kind : std::uint8_t { kSpace, kLink, kServing };
  Kind kind = Kind::kSpace;
  /// The IS (kSpace, kServing) or the link's smaller endpoint (kLink).
  net::NodeId node = net::kInvalidNode;
  /// The link's larger endpoint (kLink only).
  net::NodeId peer = net::kInvalidNode;
  /// Bytes (kSpace) or bytes/sec (kLink, kServing).
  double cap = 0.0;
};

/// The resources an aggregate holds.
enum class Resources : std::uint8_t {
  kSpace = 1,    // every IS's space
  kStreams = 2,  // capped links and io-capped ISs
  kAll = 3,
};

class Load;

/// Read-only view of a Load without one file's pieces (Load::Excluding).
/// The Load must outlive it.
class LoadView {
 public:
  /// Timeline of `key` in this view.
  [[nodiscard]] const util::PiecewiseLinear& Find(std::size_t key) const;

  /// True iff `piece`, a residency at `node`, keeps that IS within its
  /// space; true when the aggregate holds no space key for it.
  [[nodiscard]] bool ResidencyFits(net::NodeId node,
                                   const util::LinearPiece& piece) const;

  [[nodiscard]] const Load& load() const { return *load_; }
  /// The excluded file; a greedy run over this view plans it.
  [[nodiscard]] std::size_t file() const { return file_; }

 private:
  friend class Load;
  /// Overlay timelines, ascending by key.
  using Overlay = std::vector<std::pair<std::size_t, util::PiecewiseLinear>>;

  LoadView(const Load* load, std::shared_ptr<const Overlay> overlay,
           std::size_t file, bool space)
      : load_(load), overlay_(std::move(overlay)), file_(file), space_(space) {}

  const Load* load_;
  /// Shared with the Load's overlay cache; immutable once published.
  std::shared_ptr<const Overlay> overlay_;
  std::size_t file_;
  /// False: every space key reads as empty.
  bool space_;
};

class Load {
 public:
  static constexpr std::size_t kNoKey = static_cast<std::size_t>(-1);

  /// Aggregates every file of `schedule`.
  Load(const core::Schedule& schedule, const core::CostModel& cost_model,
       Resources resources = Resources::kAll);

  /// Aggregates only `files` (ascending), e.g. one SORP region shard's.
  /// File indices stay global: a file outside the subset has no pieces
  /// until a commit gives it some.
  Load(const core::Schedule& schedule, const core::CostModel& cost_model,
       const std::vector<std::size_t>& files,
       Resources resources = Resources::kAll);

  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  [[nodiscard]] const std::vector<LoadKey>& keys() const { return keys_; }
  [[nodiscard]] const util::PiecewiseLinear& timeline(std::size_t key) const {
    return timelines_[key];
  }

  /// Key of an IS's space, of the link between two nodes, or of an IS's
  /// serving I/O; kNoKey when the aggregate holds none.
  [[nodiscard]] std::size_t SpaceKey(net::NodeId node) const;
  [[nodiscard]] std::size_t LinkKey(net::NodeId a, net::NodeId b) const;
  [[nodiscard]] std::size_t ServingKey(net::NodeId node) const;

  /// True when the aggregate holds a stream key.
  [[nodiscard]] bool holds_streams() const {
    return first_link_ < keys_.size();
  }

  /// Peak reserved bytes at an IS (0 when the aggregate holds no space).
  [[nodiscard]] double SpacePeak(net::NodeId node) const;

  /// A stream of `video` from `t`, tagged with `file`.
  [[nodiscard]] util::LinearPiece StreamPiece(media::VideoId video,
                                              util::Seconds t,
                                              std::size_t file) const;

  /// Calls fn(key) for each key a stream along `route` occupies: every
  /// capped link in route order, then the origin's serving I/O (a local
  /// replay, a single-node route, also streams off the origin's disks).
  /// Does nothing when the aggregate holds no stream key.
  template <typename Fn>
  void ForEachStreamKey(std::span<const net::NodeId> route, Fn&& fn) const {
    if (!holds_streams() || route.empty()) return;
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      const std::size_t key = LinkKey(route[i], route[i + 1]);
      if (key != kNoKey) fn(key);
    }
    const std::size_t origin = ServingKey(route.front());
    if (origin != kNoKey) fn(origin);
  }

  /// The aggregate without `file`'s pieces.  With `space` false every
  /// space key reads as empty, so a residency meets only the check that
  /// its own height fits (SORP's capacity-unaware ablation).  Safe to call
  /// concurrently: the overlay cache is mutex-guarded.
  [[nodiscard]] LoadView Excluding(std::size_t file, bool space = true) const;

  /// Swaps `file`'s pieces for `plan`'s, in O(pieces at the keys either
  /// touches).  Advances the generation of every key where the file's
  /// pieces changed.
  void ApplyCommit(std::size_t file, const core::FileSchedule& plan);

  /// Monotone per-key mutation counter; 0 for keys no commit changed.  A
  /// cached overlay is stale once one of its keys has advanced.
  [[nodiscard]] std::uint64_t Generation(std::size_t key) const {
    return generations_[key];
  }

 private:
  /// One cached overlay: valid while the file still has pieces at exactly
  /// `keys` and none of their generations moved.
  struct CachedOverlay {
    std::shared_ptr<const LoadView::Overlay> overlay;
    std::vector<std::size_t> keys;
    std::vector<std::uint64_t> generations;
  };

  /// Adds `plan`'s pieces as `file`'s and records the keys they land on.
  /// `sorted` inserts at the file's tag position; otherwise appends (a
  /// build in ascending file order).
  void Place(std::size_t file, const core::FileSchedule& plan, bool sorted);

  const core::CostModel* cost_model_;
  std::vector<LoadKey> keys_;
  std::vector<util::PiecewiseLinear> timelines_;
  std::vector<std::uint64_t> generations_;
  /// keys_[first_link_, first_serving_) are the links.
  std::size_t first_link_ = 0;
  std::size_t first_serving_ = 0;
  /// Space and serving key of each node id (kNoKey when none).
  std::vector<std::size_t> space_key_;
  std::vector<std::size_t> serving_key_;
  /// Keys holding each file's pieces (ascending).
  std::vector<std::vector<std::size_t>> file_keys_;
  mutable std::mutex overlay_mutex_;
  mutable std::unordered_map<std::size_t, CachedOverlay> overlay_cache_;
};

/// A greedy run's streams over a LoadView: the view plus the run's own
/// streams, tagged with the view's file.  The view must outlive it.
class LoadDelta {
 public:
  explicit LoadDelta(const LoadView& view) : view_(&view) {}

  /// Timeline of `key` with the run's own streams.
  [[nodiscard]] const util::PiecewiseLinear& Find(std::size_t key) const;

  /// True iff a stream of `video` from `t` along `route` keeps every key
  /// it occupies within its cap.
  [[nodiscard]] bool RouteFits(std::span<const net::NodeId> route,
                               util::Seconds t, media::VideoId video) const;

  /// Adds the stream of one delivery of `video` to every key it occupies.
  void AddStream(const core::Delivery& d, media::VideoId video);

  /// Keys the run has written, ascending.
  [[nodiscard]] std::vector<std::size_t> Touched() const;

 private:
  const LoadView* view_;
  /// The written keys' timelines, ascending by key.
  std::vector<std::pair<std::size_t, util::PiecewiseLinear>> own_;
};

/// The stream accounting of a finished schedule.
struct StreamReport {
  /// Deliveries whose route did not fit when the schedule was replayed
  /// in file order: requests forced through a saturated resource.
  std::size_t forced_requests = 0;
  std::size_t overloaded_links = 0;
  std::size_t overloaded_nodes = 0;
  /// Peak load over cap across all stream keys; <= 1 means feasible.
  double worst_utilization = 0.0;
};

/// Replays the schedule's streams in file order against the topology's
/// caps.
[[nodiscard]] StreamReport MeasureStreams(const core::Schedule& schedule,
                                          const net::Topology& topology,
                                          const media::Catalog& catalog);

}  // namespace vor::storage
