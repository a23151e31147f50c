// Fixture: DET-1 negative — `.begin()` on a name reached through another
// object (`result.nodes`, `p->nodes`) is that object's member, not the
// unordered local that shares its name.  Expected findings: none.
#include <unordered_map>
#include <vector>

struct Result {
  std::vector<int> nodes;
};

int FirstNodes(const Result& result) {
  std::unordered_map<int, int> nodes;
  nodes[1] = 2;
  const auto hit = nodes.find(1);
  const Result* p = &result;
  return *result.nodes.begin() + *p->nodes.begin() + hit->second;
}
