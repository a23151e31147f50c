#include "net/route.hpp"

#include <cassert>
#include <limits>

namespace vor::net {

void Route::Rehome(std::span<const NodeId> nodes, std::size_t capacity) {
  assert(capacity > kInlineNodes && capacity >= nodes.size());
  assert(capacity <= std::numeric_limits<std::uint32_t>::max());
  auto* block = new NodeId[capacity];
  std::copy(nodes.begin(), nodes.end(), block);
  Release();
  heap_ = block;
  size_ = static_cast<std::uint32_t>(nodes.size());
  capacity_ = static_cast<std::uint32_t>(capacity);
}

}  // namespace vor::net
