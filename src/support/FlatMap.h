//===- support/FlatMap.h - Map over a few keys in one vector ---------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An associative table kept as one vector of (key, value) pairs in
/// insertion order. Lookups scan the vector, so it suits tables of a few
/// dozen entries at most: a schedule's loop bindings, annotations and
/// pragmas. A std::map allocates a node per entry; this allocates only
/// when the vector grows, and reserve() can make that once.
///
/// The interface is the subset of std::map the compiler uses: find,
/// count, at, operator[], emplace and iteration. Unlike std::map, an
/// insertion may move every entry, so a reference or iterator into the
/// table does not survive one.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_SUPPORT_FLATMAP_H
#define UNIT_SUPPORT_FLATMAP_H

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace unit {

template <typename K, typename V> class FlatMap {
public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return Entries.begin(); }
  iterator end() { return Entries.end(); }
  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }
  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  void reserve(size_t N) { Entries.reserve(N); }

  iterator find(const K &Key) {
    return std::find_if(begin(), end(),
                        [&](const value_type &E) { return E.first == Key; });
  }
  const_iterator find(const K &Key) const {
    return std::find_if(begin(), end(),
                        [&](const value_type &E) { return E.first == Key; });
  }
  size_t count(const K &Key) const { return find(Key) != end(); }

  /// The value of \p Key; throws std::out_of_range when absent.
  V &at(const K &Key) {
    auto It = find(Key);
    if (It == end())
      throw std::out_of_range("FlatMap::at: key not present");
    return It->second;
  }
  const V &at(const K &Key) const {
    auto It = find(Key);
    if (It == end())
      throw std::out_of_range("FlatMap::at: key not present");
    return It->second;
  }

  /// The value of \p Key, inserted value-initialized when absent.
  V &operator[](const K &Key) {
    auto It = find(Key);
    if (It != end())
      return It->second;
    Entries.emplace_back(Key, V());
    return Entries.back().second;
  }

  /// Inserts (Key, V(Args...)) unless \p Key is present, which keeps its
  /// value. Returns the key's entry and whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> emplace(const K &Key, Args &&...A) {
    auto It = find(Key);
    if (It != end())
      return {It, false};
    Entries.emplace_back(std::piecewise_construct, std::forward_as_tuple(Key),
                         std::forward_as_tuple(std::forward<Args>(A)...));
    return {std::prev(end()), true};
  }

private:
  std::vector<value_type> Entries;
};

} // namespace unit

#endif // UNIT_SUPPORT_FLATMAP_H
