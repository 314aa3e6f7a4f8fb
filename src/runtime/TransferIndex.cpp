//===- runtime/TransferIndex.cpp -------------------------------------------===//

#include "runtime/TransferIndex.h"

#include "core/Isomorphism.h"

#include <algorithm>
#include <iterator>
#include <mutex>

using namespace unit;

namespace {

/// Splits a cache key after its third '|' into the `target|spechash|kind|`
/// group and the body. Returns false for keys without three separators
/// (no backend produces those, but a malformed key must never seed
/// anything).
bool splitKey(std::string_view Key, std::string_view &Group,
              std::string_view &Body) {
  size_t Pos = 0;
  for (int Sep = 0; Sep < 3; ++Sep) {
    Pos = Key.find('|', Pos);
    if (Pos == std::string_view::npos)
      return false;
    ++Pos;
  }
  Group = Key.substr(0, Pos);
  Body = Key.substr(Pos);
  return true;
}

/// The id of a query token no recorded body contains: it never equals a
/// body token, which is all the distance needs of it.
constexpr uint32_t UnseenToken = UINT32_MAX;

} // namespace

std::vector<uint32_t> TransferIndex::intern(std::string_view Body) {
  std::vector<uint32_t> Ids;
  for (std::string_view Tok : structuralTokens(Body))
    Ids.push_back(TokenIds
                      .emplace(std::string(Tok),
                               static_cast<uint32_t>(TokenIds.size()))
                      .first->second);
  return Ids;
}

std::vector<uint32_t> TransferIndex::lookup(std::string_view Body) const {
  std::vector<uint32_t> Ids;
  for (std::string_view Tok : structuralTokens(Body)) {
    auto It = TokenIds.find(std::string(Tok));
    Ids.push_back(It == TokenIds.end() ? UnseenToken : It->second);
  }
  return Ids;
}

void TransferIndex::record(const std::string &Key, int Winner) {
  std::string_view GroupName, Body;
  if (Winner < 0 || !splitKey(Key, GroupName, Body))
    return;
  std::unique_lock<std::shared_mutex> Lock(Mu);
  Group &G = Groups[std::string(GroupName)];
  auto It = G.ByBody.find(Body);
  if (It != G.ByBody.end()) {
    It->second.Winner = Winner;
    return;
  }
  if (G.ByBody.size() >= GroupCap)
    return;
  It = G.ByBody.emplace(std::string(Body), Entry{intern(Body), Winner}).first;
  G.ByLength.emplace(It->second.Tokens.size(), It);
}

int TransferIndex::nearest(const std::string &Key) const {
  std::string_view GroupName, Body;
  if (!splitKey(Key, GroupName, Body))
    return -1;
  // A quarter-ish of the serialization may differ and still count as
  // "near": generous, because a wrong-but-in-range seed only costs one
  // extra scored candidate — it can never change the winner.
  size_t Cutoff = std::max<size_t>(8, Body.size() / 10);
  std::shared_lock<std::shared_mutex> Lock(Mu);
  auto GIt = Groups.find(std::string(GroupName));
  if (GIt == Groups.end())
    return -1;
  const Group &G = GIt->second;
  // An identical body is the only one at distance 0: it wins outright.
  if (auto Exact = G.ByBody.find(Body); Exact != G.ByBody.end())
    return Exact->second.Winner;
  std::vector<uint32_t> Query = lookup(Body);
  size_t N = Query.size();

  // The answer is the least (distance, body) pair with distance <=
  // Cutoff. BestD is the distance a body must not exceed to win: a body
  // ordered before the best so far wins at BestD, one after it only
  // below. The edit distance is at least the token-count difference, so
  // once the nearest unvisited count is more than BestD away nothing left
  // can win; at exactly BestD away an earlier body still can.
  const Entry *Best = nullptr;
  std::string_view BestBody;
  size_t BestD = Cutoff;
  auto Up = G.ByLength.lower_bound(N), Down = Up;
  while (Up != G.ByLength.end() || Down != G.ByLength.begin()) {
    size_t UpGap = Up != G.ByLength.end() ? Up->first - N : SIZE_MAX;
    size_t DownGap =
        Down != G.ByLength.begin() ? N - std::prev(Down)->first : SIZE_MAX;
    if (std::min(UpGap, DownGap) > BestD)
      break;
    Bodies::const_iterator It =
        UpGap <= DownGap ? (Up++)->second : (--Down)->second;
    bool Earlier = !Best || It->first < BestBody;
    size_t Limit = Earlier ? BestD : BestD - 1;
    size_t D = structuralDistance(Query, It->second.Tokens, Limit);
    if (D > Limit)
      continue;
    Best = &It->second;
    BestBody = It->first;
    BestD = D;
  }
  return Best ? Best->Winner : -1;
}
