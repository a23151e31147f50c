// A delivery's node sequence, stored inline when short.
//
// Almost every route a schedule holds is short: a replay from the
// user's own IS is one node, a stream from a neighbour's cache two or
// three.  Route keeps up to kInlineNodes ids inside the object and moves
// a longer sequence to one heap block, so copying, freeing or walking a
// file's deliveries touches one contiguous array instead of one
// allocation per delivery.  It offers the slice of std::vector that
// route users need; code that only reads a route takes
// std::span<const NodeId>, which both a Route and the router's
// std::vector paths convert to.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>

#include "net/topology.hpp"

namespace vor::net {

class Route {
 public:
  /// Ids held inside the object; a longer route lives on the heap.
  static constexpr std::size_t kInlineNodes = 4;

  Route() noexcept = default;
  Route(std::initializer_list<NodeId> nodes) { Assign(Span(nodes)); }
  explicit Route(std::span<const NodeId> nodes) { Assign(nodes); }
  Route(const Route& other) { Assign(other); }
  Route(Route&& other) noexcept { Steal(other); }
  ~Route() { Release(); }

  Route& operator=(const Route& other) {
    if (this != &other) Assign(other);
    return *this;
  }
  Route& operator=(Route&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  /// Replaces the ids, e.g. with a router path's nodes.
  Route& operator=(std::span<const NodeId> nodes) {
    Assign(nodes);
    return *this;
  }
  Route& operator=(std::initializer_list<NodeId> nodes) {
    Assign(Span(nodes));
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] NodeId* data() { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] const NodeId* data() const {
    return on_heap() ? heap_ : inline_;
  }
  [[nodiscard]] NodeId* begin() { return data(); }
  [[nodiscard]] NodeId* end() { return data() + size_; }
  [[nodiscard]] const NodeId* begin() const { return data(); }
  [[nodiscard]] const NodeId* end() const { return data() + size_; }
  [[nodiscard]] NodeId& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const NodeId& operator[](std::size_t i) const {
    return data()[i];
  }
  [[nodiscard]] NodeId front() const { return data()[0]; }
  [[nodiscard]] NodeId back() const { return data()[size_ - 1]; }

  void push_back(NodeId id) {
    if (size_ == capacity_) Rehome(*this, std::size_t{capacity_} * 2);
    data()[size_++] = id;
  }
  void reserve(std::size_t n) {
    if (n > capacity_) Rehome(*this, n);
  }
  void clear() { size_ = 0; }

  friend bool operator==(const Route& a, const Route& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] bool on_heap() const { return capacity_ > kInlineNodes; }
  static std::span<const NodeId> Span(std::initializer_list<NodeId> nodes) {
    return {nodes.begin(), nodes.size()};
  }

  void Assign(std::span<const NodeId> nodes) {
    if (nodes.size() > capacity_) {
      Rehome(nodes, nodes.size());
      return;
    }
    // A span into this route's own ids fits its capacity, so it lands
    // here, and memmove allows the overlap.
    if (!nodes.empty()) {
      std::memmove(data(), nodes.data(), nodes.size() * sizeof(NodeId));
    }
    size_ = static_cast<std::uint32_t>(nodes.size());
  }
  /// Replaces the storage with a heap block of `capacity` ids holding
  /// `nodes` (which may be this route's own ids).
  void Rehome(std::span<const NodeId> nodes, std::size_t capacity);
  void Steal(Route& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      std::memcpy(inline_, other.inline_, sizeof inline_);
    }
    other.size_ = 0;
    other.capacity_ = kInlineNodes;
  }
  void Release() noexcept {
    if (on_heap()) delete[] heap_;
  }

  std::uint32_t size_ = 0;
  /// kInlineNodes while the ids are inline; the heap block's size after.
  std::uint32_t capacity_ = kInlineNodes;
  union {
    NodeId inline_[kInlineNodes] = {};
    NodeId* heap_;
  };
};

static_assert(sizeof(Route) == 24, "a Route is two counts and 16 bytes of ids");

}  // namespace vor::net
