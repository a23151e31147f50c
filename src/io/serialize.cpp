#include "io/serialize.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "io/json_schema.hpp"
#include "io/schema.hpp"
#include "workload/trace.hpp"

namespace vor::io {

using util::Json;
using util::JsonArray;
using util::JsonObject;

namespace {
constexpr const char* kFormatVersion = "vor/1";

bool CheckKind(const Json& j, const std::string& kind, std::string& error) {
  if (!j.is_object()) {
    error = "expected a JSON object";
    return false;
  }
  if (j.GetString("format", "") != kFormatVersion) {
    error = "unknown or missing format (want " + std::string(kFormatVersion) + ")";
    return false;
  }
  if (j.GetString("kind", "") != kind) {
    error = "expected kind '" + kind + "', got '" + j.GetString("kind", "") + "'";
    return false;
  }
  return true;
}
}  // namespace

// ---- topology -----------------------------------------------------------

Json ToJson(const net::Topology& topology) {
  JsonArray nodes;
  for (const net::NodeInfo& n : topology.nodes()) {
    JsonObject node;
    node["id"] = n.id;
    node["kind"] = n.kind == net::NodeKind::kWarehouse ? "warehouse" : "storage";
    node["name"] = n.name;
    if (n.kind == net::NodeKind::kStorage) {
      node["capacity_bytes"] = n.capacity.value();
      node["srate_per_byte_sec"] = n.srate.value();
      if (n.io_cap.value() > 0.0) {
        node["io_cap_bytes_per_sec"] = n.io_cap.value();
      }
    }
    nodes.emplace_back(std::move(node));
  }
  JsonArray links;
  for (const net::Link& l : topology.links()) {
    JsonObject link;
    link["a"] = l.a;
    link["b"] = l.b;
    link["nrate_per_byte"] = l.nrate.value();
    if (l.bandwidth_cap.value() > 0.0) {
      link["bandwidth_cap_bytes_per_sec"] = l.bandwidth_cap.value();
    }
    links.emplace_back(std::move(link));
  }
  JsonObject doc;
  doc["format"] = kFormatVersion;
  doc["kind"] = "topology";
  doc["nodes"] = std::move(nodes);
  doc["links"] = std::move(links);
  return doc;
}

util::Result<net::Topology> TopologyFromJson(const Json& j) {
  std::string error;
  if (!CheckKind(j, "topology", error)) return util::InvalidArgument(error);
  if (!j["nodes"].is_array() || !j["links"].is_array()) {
    return util::InvalidArgument("topology needs 'nodes' and 'links' arrays");
  }
  net::Topology topo;
  for (const Json& node : j["nodes"].as_array()) {
    const std::string kind = node.GetString("kind", "");
    const std::string name = node.GetString("name", "");
    net::NodeId id = net::kInvalidNode;
    if (kind == "warehouse") {
      if (topo.has_warehouse()) {
        return util::InvalidArgument("duplicate warehouse node");
      }
      id = topo.AddWarehouse(name);
    } else if (kind == "storage") {
      id = topo.AddStorage(
          name, util::Bytes{node.GetNumber("capacity_bytes", 0.0)},
          util::StorageRate{node.GetNumber("srate_per_byte_sec", 0.0)});
      // Optional serving-I/O cap (storage::Load).
      const double io_cap = node.GetNumber("io_cap_bytes_per_sec", 0.0);
      if (io_cap > 0.0) topo.SetNodeIoCap(id, util::BytesPerSecond{io_cap});
    } else {
      return util::InvalidArgument("node with unknown kind '" + kind + "'");
    }
    if (static_cast<double>(id) != node.GetNumber("id", -1.0)) {
      return util::InvalidArgument(
          "node ids must be dense and in file order");
    }
  }
  for (const Json& link : j["links"].as_array()) {
    const net::NodeId a = JsonFieldReader::ToId(link.GetNumber("a", -1.0));
    const net::NodeId b = JsonFieldReader::ToId(link.GetNumber("b", -1.0));
    if (a >= topo.node_count() || b >= topo.node_count() || a == b) {
      return util::InvalidArgument("link references an unknown node");
    }
    topo.AddLink(a, b, util::NetworkRate{link.GetNumber("nrate_per_byte", 0.0)},
                 util::BytesPerSecond{
                     link.GetNumber("bandwidth_cap_bytes_per_sec", 0.0)});
  }
  if (const util::Status s = topo.Validate(); !s.ok()) return s.error();
  return topo;
}

// ---- catalog ---------------------------------------------------------------

Json ToJson(const media::Catalog& catalog) {
  JsonArray videos;
  for (const media::Video& v : catalog.videos()) {
    JsonObject video;
    video["id"] = v.id;
    video["title"] = v.title;
    video["size_bytes"] = v.size.value();
    video["playback_sec"] = v.playback.value();
    video["bandwidth_bytes_per_sec"] = v.bandwidth.value();
    videos.emplace_back(std::move(video));
  }
  JsonObject doc;
  doc["format"] = kFormatVersion;
  doc["kind"] = "catalog";
  doc["videos"] = std::move(videos);
  return doc;
}

util::Result<media::Catalog> CatalogFromJson(const Json& j) {
  std::string error;
  if (!CheckKind(j, "catalog", error)) return util::InvalidArgument(error);
  if (!j["videos"].is_array()) {
    return util::InvalidArgument("catalog needs a 'videos' array");
  }
  media::Catalog catalog;
  for (const Json& video : j["videos"].as_array()) {
    media::Video v;
    v.title = video.GetString("title", "");
    v.size = util::Bytes{video.GetNumber("size_bytes", 0.0)};
    v.playback = util::Seconds{video.GetNumber("playback_sec", 0.0)};
    v.bandwidth =
        util::BytesPerSecond{video.GetNumber("bandwidth_bytes_per_sec", 0.0)};
    const media::VideoId id = catalog.Add(std::move(v));
    if (static_cast<double>(id) != video.GetNumber("id", -1.0)) {
      return util::InvalidArgument("video ids must be dense and in file order");
    }
  }
  if (const util::Status s = catalog.Validate(); !s.ok()) return s.error();
  return catalog;
}

// ---- requests ---------------------------------------------------------------

Json ToJson(const std::vector<workload::Request>& requests) {
  JsonArray arr;
  for (const workload::Request& r : requests) {
    JsonObject req;
    JsonFieldWriter writer{req};
    schema::VisitRequest(writer, r);
    arr.emplace_back(std::move(req));
  }
  JsonObject doc;
  doc["format"] = kFormatVersion;
  doc["kind"] = "requests";
  doc["requests"] = std::move(arr);
  return doc;
}

util::Result<std::vector<workload::Request>> RequestsFromJson(const Json& j) {
  std::string error;
  if (!CheckKind(j, "requests", error)) return util::InvalidArgument(error);
  if (!j["requests"].is_array()) {
    return util::InvalidArgument("requests document needs a 'requests' array");
  }
  std::vector<workload::Request> out;
  for (const Json& req : j["requests"].as_array()) {
    if (!req.is_object()) {
      return util::InvalidArgument("request entries must be objects");
    }
    workload::Request r;
    JsonFieldReader reader{req};
    schema::VisitRequest(reader, r);
    if (!reader.status.ok()) return reader.status.error();
    out.push_back(r);
  }
  return out;
}

// ---- schedule ---------------------------------------------------------------

Json ToJson(const core::Schedule& schedule) {
  JsonArray files;
  for (const core::FileSchedule& f : schedule.files) {
    JsonArray deliveries;
    for (const core::Delivery& d : f.deliveries) {
      JsonObject delivery;
      JsonFieldWriter writer{delivery};
      schema::VisitDelivery(writer, d);
      deliveries.emplace_back(std::move(delivery));
    }
    JsonArray residencies;
    for (const core::Residency& c : f.residencies) {
      JsonObject residency;
      JsonFieldWriter writer{residency};
      schema::VisitResidency(writer, c);
      residencies.emplace_back(std::move(residency));
    }
    JsonObject file;
    file["video"] = f.video;
    file["deliveries"] = std::move(deliveries);
    file["residencies"] = std::move(residencies);
    files.emplace_back(std::move(file));
  }
  JsonObject doc;
  doc["format"] = kFormatVersion;
  doc["kind"] = "schedule";
  doc["files"] = std::move(files);
  return doc;
}

util::Result<core::Schedule> ScheduleFromJson(const Json& j) {
  std::string error;
  if (!CheckKind(j, "schedule", error)) return util::InvalidArgument(error);
  if (!j["files"].is_array()) {
    return util::InvalidArgument("schedule needs a 'files' array");
  }
  core::Schedule schedule;
  for (const Json& file : j["files"].as_array()) {
    core::FileSchedule f;
    f.video = JsonFieldReader::ToId(file.GetNumber("video", 0.0));
    if (!file["deliveries"].is_array() || !file["residencies"].is_array()) {
      return util::InvalidArgument("file schedule arrays missing");
    }
    for (const Json& delivery : file["deliveries"].as_array()) {
      core::Delivery d;
      JsonFieldReader reader{delivery};
      schema::VisitDelivery(reader, d);
      if (!reader.status.ok()) return reader.status.error();
      f.deliveries.push_back(std::move(d));
    }
    for (const Json& residency : file["residencies"].as_array()) {
      core::Residency c;
      JsonFieldReader reader{residency};
      schema::VisitResidency(reader, c);
      if (!reader.status.ok()) return reader.status.error();
      f.residencies.push_back(std::move(c));
    }
    schedule.files.push_back(std::move(f));
  }
  return schedule;
}

// ---- scenario params -----------------------------------------------------

Json ToJson(const workload::ScenarioParams& params) {
  JsonObject doc;
  doc["format"] = kFormatVersion;
  doc["kind"] = "scenario_params";
  doc["nrate_per_gb"] = params.nrate_per_gb;
  doc["srate_per_gb_hour"] = params.srate_per_gb_hour;
  doc["is_capacity_gb"] = params.is_capacity.value() / 1e9;
  doc["zipf_alpha"] = params.zipf_alpha;
  doc["storage_count"] = params.storage_count;
  doc["users_per_neighborhood"] = params.users_per_neighborhood;
  doc["catalog_size"] = params.catalog_size;
  doc["mean_video_size_gb"] = params.mean_video_size.value() / 1e9;
  doc["cycle_hours"] = params.cycle_length.value() / 3600.0;
  doc["evening_peak"] =
      params.start_profile == workload::StartTimeProfile::kEveningPeak;
  // Exact: seeds are full-width uint64 and must survive the round trip.
  doc["seed"] = params.seed;
  return doc;
}

util::Result<workload::ScenarioParams> ScenarioParamsFromJson(const Json& j) {
  std::string error;
  if (!CheckKind(j, "scenario_params", error)) {
    return util::InvalidArgument(error);
  }
  workload::ScenarioParams p;
  p.nrate_per_gb = j.GetNumber("nrate_per_gb", p.nrate_per_gb);
  p.srate_per_gb_hour = j.GetNumber("srate_per_gb_hour", p.srate_per_gb_hour);
  p.is_capacity = util::GB(j.GetNumber("is_capacity_gb", 5.0));
  p.zipf_alpha = j.GetNumber("zipf_alpha", p.zipf_alpha);
  // Generator counts are ids in practice; the 32-bit guard keeps hostile
  // magnitudes (1e300) from hitting an undefined double→size_t cast.
  p.storage_count = JsonFieldReader::ToId(j.GetNumber("storage_count", 19.0));
  p.users_per_neighborhood =
      JsonFieldReader::ToId(j.GetNumber("users_per_neighborhood", 10.0));
  p.catalog_size = JsonFieldReader::ToId(j.GetNumber("catalog_size", 500.0));
  p.mean_video_size = util::GB(j.GetNumber("mean_video_size_gb", 3.3));
  p.cycle_length = util::Hours(j.GetNumber("cycle_hours", 24.0));
  p.start_profile = j.GetBool("evening_peak", false)
                        ? workload::StartTimeProfile::kEveningPeak
                        : workload::StartTimeProfile::kUniform;
  p.seed = j.GetUint64("seed", 1997);
  if (const util::Status s = workload::ValidateScenarioParams(p); !s.ok()) {
    return s.error();
  }
  return p;
}

// ---- scenario bundle -------------------------------------------------------

Json ScenarioToJson(const workload::Scenario& scenario) {
  JsonObject doc;
  doc["format"] = kFormatVersion;
  doc["kind"] = "scenario";
  doc["params"] = ToJson(scenario.params);
  doc["topology"] = ToJson(scenario.topology);
  doc["catalog"] = ToJson(scenario.catalog);
  doc["requests"] = ToJson(scenario.requests);
  return doc;
}

util::Result<workload::Scenario> ScenarioFromJson(const Json& j) {
  std::string error;
  if (!CheckKind(j, "scenario", error)) return util::InvalidArgument(error);
  workload::Scenario scenario;
  auto params = ScenarioParamsFromJson(j["params"]);
  if (!params.ok()) return params.error();
  scenario.params = *params;
  auto topology = TopologyFromJson(j["topology"]);
  if (!topology.ok()) return topology.error();
  scenario.topology = std::move(*topology);
  auto catalog = CatalogFromJson(j["catalog"]);
  if (!catalog.ok()) return catalog.error();
  scenario.catalog = std::move(*catalog);
  auto requests = RequestsFromJson(j["requests"]);
  if (!requests.ok()) return requests.error();
  scenario.requests = std::move(*requests);
  if (const util::Status s = workload::ValidateTrace(
          scenario.requests, scenario.topology, scenario.catalog);
      !s.ok()) {
    return s.error();
  }
  return scenario;
}

// ---- files --------------------------------------------------------------

util::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

util::Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Internal("cannot write " + path);
  // The stream buffers, so a full disk may only surface when the buffer is
  // flushed on close: check after both.
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) return util::Internal("write failed: " + path);
  out.close();
  if (!out) return util::Internal("write failed on close: " + path);
  return util::Status::Ok();
}

}  // namespace vor::io
