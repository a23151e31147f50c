// Fixture: DET-1 via the sibling header — `load_` is declared unordered in
// det1_member_positive.hpp and iterated here.  Expected findings: DET-1 x2
// (range-for, iterator loop).
#include "det1_member_positive.hpp"

namespace fixture {
double LinkLoad::Total() const {
  double total = 0.0;
  for (const auto& [link, bytes] : load_) {
    total += bytes;
  }
  for (auto it = load_.begin(); it != load_.end(); ++it) {
    total += it->second;
  }
  return total;
}
}  // namespace fixture
