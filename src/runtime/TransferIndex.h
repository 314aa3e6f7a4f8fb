//===- runtime/TransferIndex.h - Nearest-neighbor index for seeds -*- C++ -*-===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transfer-tuning index (docs/TUNING.md): for every cache key whose
/// compile proved a winner, the winning candidate index, so a cold compile
/// of a near-isomorphic key can seed its tuner search with it.
///
/// Keys are grouped by their `target|spechash|kind|` prefix, so seeds
/// never cross a backend or workload family; the rest of the key (the
/// body) is what the structural distance is taken over. Each group holds
/// at most GroupCap bodies.
///
/// nearest() picks, among the bodies within max(8, len/10) token edits
/// of the query (len: the query body's length in characters), the one
/// with the least distance; ties go to the first body in lexicographic
/// (std::map) order. An identical body, the only one at distance 0, is
/// looked up first. Otherwise nearest() finds the body without computing
/// every distance: each body is tokenized and interned once, on
/// record; bodies are visited nearest the query's token count first; each
/// distance runs under the best distance so far as its cutoff; and the
/// scan ends once the token-count difference alone exceeds the best
/// distance. nearest() takes a shared lock, so concurrent cold compiles
/// scan together; record() takes the exclusive one.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_RUNTIME_TRANSFERINDEX_H
#define UNIT_RUNTIME_TRANSFERINDEX_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace unit {

class TransferIndex {
public:
  /// Per-group body cap: the index is an accelerator, not a cache — a
  /// runaway key population must not grow it without bound.
  static constexpr size_t GroupCap = 512;

  /// Records \p Winner as the winning candidate of \p Key. A negative
  /// winner (a fallback report, with no candidate space) and a key
  /// without three '|' separators are ignored. A known body takes the new
  /// winner; a new body is refused once its group holds GroupCap.
  void record(const std::string &Key, int Winner);

  /// The winner recorded for the structurally nearest body in \p Key's
  /// group, or -1 when no body is within the cutoff (or \p Key is
  /// malformed, or its group is empty).
  int nearest(const std::string &Key) const;

private:
  struct Entry {
    std::vector<uint32_t> Tokens; ///< The body, interned.
    int Winner = -1;
  };
  /// std::map: nearest() breaks ties by this order.
  using Bodies = std::map<std::string, Entry, std::less<>>;
  struct Group {
    Bodies ByBody;
    /// Token count -> body, the order nearest() visits bodies in.
    std::multimap<size_t, Bodies::const_iterator> ByLength;
  };

  /// Token ids of \p Body; unseen tokens get new ids.
  std::vector<uint32_t> intern(std::string_view Body);
  /// Token ids of \p Body; unseen tokens get an id no body holds.
  std::vector<uint32_t> lookup(std::string_view Body) const;

  mutable std::shared_mutex Mu;
  std::unordered_map<std::string, Group> Groups;
  std::unordered_map<std::string, uint32_t> TokenIds;
};

} // namespace unit

#endif // UNIT_RUNTIME_TRANSFERINDEX_H
