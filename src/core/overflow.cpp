#include "core/overflow.hpp"

namespace vor::core {

namespace {

bool IsSpace(const storage::LoadKey& key) {
  return key.kind == storage::LoadKey::Kind::kSpace;
}

}  // namespace

std::vector<OverflowWindow> DetectOverflowsIn(const storage::Load& load) {
  // Space keys come in node order and each key's regions in time order,
  // so the windows come out ordered by (node, start).
  std::vector<OverflowWindow> overflows;
  for (std::size_t k = 0; k < load.keys().size(); ++k) {
    const storage::LoadKey& key = load.keys()[k];
    if (!IsSpace(key)) continue;
    for (const util::ExcessRegion& region :
         load.timeline(k).RegionsAbove(key.cap)) {
      OverflowWindow of;
      of.node = key.node;
      of.window = region.window;
      of.peak_bytes = region.peak;
      of.capacity_bytes = key.cap;
      of.contributors.reserve(region.contributors.size());
      for (const std::uint64_t tag : region.contributors) {
        of.contributors.push_back(ResidencyRef::Unpack(tag));
      }
      overflows.push_back(std::move(of));
    }
  }
  return overflows;
}

std::vector<OverflowWindow> DetectOverflows(const core::Schedule& schedule,
                                            const core::CostModel& cost_model) {
  const storage::Load load(schedule, cost_model, storage::Resources::kSpace);
  return DetectOverflowsIn(load);
}

double TotalExcess(const storage::Load& load) {
  // Summed in node order: floating-point addition is not associative, and
  // the SORP progress guard compares these sums across engines.
  double total = 0.0;
  for (std::size_t k = 0; k < load.keys().size(); ++k) {
    const storage::LoadKey& key = load.keys()[k];
    if (!IsSpace(key)) continue;
    const util::PiecewiseLinear& timeline = load.timeline(k);
    for (const util::ExcessRegion& region : timeline.RegionsAbove(key.cap)) {
      // Integral of (usage - capacity) over the region.
      total += timeline.IntegralOver(region.window) -
               key.cap * region.window.length().value();
    }
  }
  return total;
}

}  // namespace vor::core
