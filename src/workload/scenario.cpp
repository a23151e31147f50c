#include "workload/scenario.hpp"

#include <sstream>

namespace vor::workload {

util::Status ValidateScenarioParams(const ScenarioParams& params) {
  if (params.storage_count == 0 || params.catalog_size == 0) {
    return util::InvalidArgument("scenario needs storages and a catalog");
  }
  // Written so that NaN fails too.
  if (!(params.zipf_alpha >= 0.0 && params.zipf_alpha <= 1.0)) {
    std::ostringstream msg;
    msg << "zipf alpha must be in [0, 1], got " << params.zipf_alpha;
    return util::InvalidArgument(msg.str());
  }
  return util::Status::Ok();
}

Scenario MakeScenario(const ScenarioParams& params) {
  Scenario s;
  s.params = params;

  net::PaperTopologyParams topo;
  topo.storage_count = params.storage_count;
  if (params.hub_count > 0) topo.hub_count = params.hub_count;
  topo.storage_capacity = params.is_capacity;
  topo.srate = params.srate();
  topo.base_nrate = params.nrate();
  topo.seed = params.seed;
  s.topology = net::MakePaperTopology(topo);

  media::CatalogParams cat;
  cat.count = params.catalog_size;
  cat.mean_size = params.mean_video_size;
  cat.seed = params.seed ^ 0xCA7A106ULL;
  s.catalog = media::MakeSyntheticCatalog(cat);

  WorkloadParams wl;
  wl.users_per_neighborhood = params.users_per_neighborhood;
  wl.zipf_alpha = params.zipf_alpha;
  wl.cycle_length = params.cycle_length;
  wl.profile = params.start_profile;
  wl.seed = params.seed ^ 0x3E9E575ULL;
  s.requests = GenerateRequests(s.topology, s.catalog, wl);
  return s;
}

std::vector<ScenarioParams> Table4Grid(const ScenarioParams& base) {
  static constexpr double kSrates[] = {3, 4, 5, 6, 7, 8};
  static constexpr double kSizesGb[] = {5, 8, 11, 14};
  static constexpr double kNrates[] = {300, 400, 500, 600, 700, 800, 900, 1000};
  static constexpr double kAlphas[] = {0.1, 0.271, 0.5, 0.7};

  std::vector<ScenarioParams> grid;
  grid.reserve(6 * 4 * 8 * 4);
  for (const double srate : kSrates) {
    for (const double size_gb : kSizesGb) {
      for (const double nrate : kNrates) {
        for (const double alpha : kAlphas) {
          ScenarioParams p = base;
          p.srate_per_gb_hour = srate;
          p.is_capacity = util::GB(size_gb);
          p.nrate_per_gb = nrate;
          p.zipf_alpha = alpha;
          grid.push_back(p);
        }
      }
    }
  }
  return grid;
}

std::string Describe(const ScenarioParams& params) {
  std::ostringstream os;
  os << "srate=" << params.srate_per_gb_hour << "$/GBh"
     << " size=" << params.is_capacity.value() / 1e9 << "GB"
     << " nrate=" << params.nrate_per_gb << "$/GB"
     << " alpha=" << params.zipf_alpha;
  return os.str();
}

}  // namespace vor::workload
