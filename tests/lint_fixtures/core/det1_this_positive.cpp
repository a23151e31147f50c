// Fixture: DET-1 positive — `this->load_.begin()` reaches the unordered
// member itself, so the member-access exemption does not apply.
// Expected findings: DET-1 x1.
#include <unordered_map>

class Loads {
 public:
  double First() const { return this->load_.begin()->second; }

 private:
  std::unordered_map<int, double> load_;
};
