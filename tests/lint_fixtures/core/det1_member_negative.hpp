// Fixture: an ordered member named like det1_member_positive.hpp's
// unordered one, and an unordered member used only for lookup.
// Expected findings: none.
#pragma once

#include <map>
#include <unordered_map>

namespace fixture {
class NodeLoad {
 public:
  double Total() const;

 private:
  std::map<int, double> load_;
  std::unordered_map<int, double> caps_;
};
}  // namespace fixture
