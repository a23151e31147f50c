// Fixture: declares an unordered member; the sibling source
// det1_member_positive.cpp iterates it.  Expected findings: none here.
#pragma once

#include <unordered_map>

namespace fixture {
class LinkLoad {
 public:
  double Total() const;

 private:
  std::unordered_map<int, double> load_;
};
}  // namespace fixture
