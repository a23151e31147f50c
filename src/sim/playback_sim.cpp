#include "sim/playback_sim.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <queue>

namespace vor::sim {

namespace {

enum class EventType : std::uint8_t {
  kStreamStart,
  kStreamEnd,
  kReserve,      // residency plateau begins: occupancy jumps to gamma*size
  kDrainStart,   // last service started: slope -= payload
  kDrainEnd,     // drain tail over: slope += payload
  kRelease,      // degenerate residency: occupancy drops by payload
};

struct Event {
  double time = 0.0;
  EventType type = EventType::kStreamStart;
  std::size_t subject = 0;  // delivery or residency ordinal
  /// Type-dependent payload: bytes (reserve), slope (drain), or unused.
  double payload = 0.0;
  net::NodeId node = net::kInvalidNode;

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return static_cast<int>(a.type) > static_cast<int>(b.type);
  }
};

struct NodeState {
  double bytes = 0.0;
  double slope = 0.0;
  double last_time = 0.0;
  double peak = 0.0;
  double integral = 0.0;
  bool touched = false;
  std::size_t residencies = 0;
  std::vector<std::pair<double, double>> trace;

  void AdvanceTo(double t) {
    if (!touched) {
      last_time = t;
      touched = true;
      return;
    }
    const double dt = t - last_time;
    if (dt > 0.0) {
      const double next = bytes + slope * dt;
      integral += 0.5 * (bytes + next) * dt;
      bytes = next;
      last_time = t;
      peak = std::max(peak, bytes);
    }
  }

  void Record(double t) {
    if (trace.empty() || trace.back().first != t ||
        trace.back().second != bytes) {
      trace.emplace_back(t, bytes);
    }
  }
};

struct LinkState {
  std::size_t streams = 0;
  double bandwidth = 0.0;
  std::size_t peak_streams = 0;
  double peak_bandwidth = 0.0;
  double total_bytes = 0.0;
};

std::uint64_t LinkKey(net::NodeId a, net::NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

double SimulationResult::OccupancyAt(net::NodeId n, util::Seconds t) const {
  const auto it = occupancy_trace.find(n);
  if (it == occupancy_trace.end() || it->second.empty()) return 0.0;
  const auto& trace = it->second;
  const double x = t.value();
  if (x <= trace.front().first) return x < trace.front().first ? 0.0 : trace.front().second;
  if (x >= trace.back().first) return trace.back().second;
  // Find the last sample with time <= x; interpolate to the next one.
  auto hi = std::upper_bound(
      trace.begin(), trace.end(), x,
      [](double value, const std::pair<double, double>& s) {
        return value < s.first;
      });
  const auto lo = hi - 1;
  if (hi == trace.end()) return lo->second;
  if (hi->first == lo->first) return hi->second;
  const double frac = (x - lo->first) / (hi->first - lo->first);
  return lo->second + frac * (hi->second - lo->second);
}

SimulationResult SimulateSchedule(const core::Schedule& schedule,
                                  const std::vector<workload::Request>& requests,
                                  const core::CostModel& cost_model) {
  (void)requests;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;

  // Seed stream events from deliveries.
  struct StreamInfo {
    const core::Delivery* delivery;
    double bandwidth;
    double playback;
  };
  std::vector<StreamInfo> streams;
  for (const core::FileSchedule& file : schedule.files) {
    const media::Video& video = cost_model.catalog().video(file.video);
    for (const core::Delivery& d : file.deliveries) {
      const std::size_t id = streams.size();
      streams.push_back(
          StreamInfo{&d, video.bandwidth.value(), video.playback.value()});
      queue.push(Event{d.start.value(), EventType::kStreamStart, id});
      queue.push(Event{d.start.value() + video.playback.value(),
                       EventType::kStreamEnd, id});
    }
    for (const core::Residency& c : file.residencies) {
      const util::LinearPiece piece =
          cost_model.OccupancyPiece(c, file.video, 0);
      const double drain = piece.t2.value() - piece.t1.value();
      queue.push(Event{piece.t0.value(), EventType::kReserve, 0, piece.height,
                       c.location});
      if (piece.height > 0.0 && drain > 0.0) {
        queue.push(Event{piece.t1.value(), EventType::kDrainStart, 0,
                         piece.height / drain, c.location});
        queue.push(Event{piece.t2.value(), EventType::kDrainEnd, 0,
                         piece.height / drain, c.location});
      } else {
        // Degenerate (zero-height or zero-drain) residency: release the
        // reservation instantly at t1.
        queue.push(Event{piece.t1.value(), EventType::kRelease, 0,
                         piece.height, c.location});
      }
    }
  }

  // Ordered, so the telemetry comes out by node and by (a, b) link.
  std::map<net::NodeId, NodeState> nodes;
  std::map<std::uint64_t, LinkState> links;
  SimulationResult result;
  std::size_t active_streams = 0;
  double first_time = 0.0;
  double last_time = 0.0;
  bool any = false;

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    ++result.events_processed;
    if (!any) {
      first_time = ev.time;
      any = true;
    }
    last_time = std::max(last_time, ev.time);

    switch (ev.type) {
      case EventType::kStreamStart:
      case EventType::kStreamEnd: {
        const StreamInfo& s = streams[ev.subject];
        const bool starting = ev.type == EventType::kStreamStart;
        if (starting) {
          ++active_streams;
          result.peak_concurrent_streams =
              std::max(result.peak_concurrent_streams, active_streams);
        } else {
          --active_streams;
        }
        const auto& route = s.delivery->route;
        for (std::size_t i = 0; i + 1 < route.size(); ++i) {
          LinkState& link = links[LinkKey(route[i], route[i + 1])];
          if (starting) {
            ++link.streams;
            link.bandwidth += s.bandwidth;
            link.peak_streams = std::max(link.peak_streams, link.streams);
            link.peak_bandwidth = std::max(link.peak_bandwidth, link.bandwidth);
            link.total_bytes += s.bandwidth * s.playback;
          } else {
            --link.streams;
            link.bandwidth -= s.bandwidth;
          }
        }
        break;
      }
      case EventType::kReserve: {
        NodeState& node = nodes[ev.node];
        node.AdvanceTo(ev.time);
        node.Record(ev.time);
        node.bytes += ev.payload;
        node.peak = std::max(node.peak, node.bytes);
        ++node.residencies;
        node.Record(ev.time);
        break;
      }
      case EventType::kDrainStart: {
        NodeState& node = nodes[ev.node];
        node.AdvanceTo(ev.time);
        node.Record(ev.time);
        node.slope -= ev.payload;
        break;
      }
      case EventType::kDrainEnd: {
        NodeState& node = nodes[ev.node];
        node.AdvanceTo(ev.time);
        node.Record(ev.time);
        node.slope += ev.payload;  // cancel this residency's drain slope
        // Clamp numerical drift: a fully drained residency contributes 0.
        if (node.bytes < 1e-6) node.bytes = std::max(0.0, node.bytes);
        node.Record(ev.time);
        break;
      }
      case EventType::kRelease: {
        NodeState& node = nodes[ev.node];
        node.AdvanceTo(ev.time);
        node.Record(ev.time);
        node.bytes -= ev.payload;
        node.Record(ev.time);
        break;
      }
    }
  }

  result.horizon = util::Interval{util::Seconds{first_time},
                                  util::Seconds{last_time}};
  for (auto& [id, node] : nodes) {
    NodeTelemetry t;
    t.node = id;
    t.peak_bytes = node.peak;
    const double span = last_time - first_time;
    t.mean_bytes = span > 0.0 ? node.integral / span : 0.0;
    t.residencies = node.residencies;
    result.nodes.push_back(t);
    result.occupancy_trace.emplace(id, std::move(node.trace));
  }
  for (const auto& [key, link] : links) {
    LinkTelemetry t;
    t.a = static_cast<net::NodeId>(key >> 32);
    t.b = static_cast<net::NodeId>(key & 0xffffffffu);
    t.peak_streams = link.peak_streams;
    t.peak_bandwidth = link.peak_bandwidth;
    t.total_bytes = link.total_bytes;
    result.links.push_back(t);
  }
  return result;
}

}  // namespace vor::sim
