// Fixture: DET-1 negative across siblings — `load_` is ordered in this
// file's own header (det1_member_negative.hpp; the unordered `load_` of
// another header does not leak in), and the unordered `caps_` is only
// looked up.  Expected findings: none.
#include "det1_member_negative.hpp"

namespace fixture {
double NodeLoad::Total() const {
  double total = 0.0;
  for (const auto& [node, bytes] : load_) {
    const auto cap = caps_.find(node);
    total += cap == caps_.end() ? bytes : bytes / cap->second;
  }
  return total;
}
}  // namespace fixture
