//===- fabric/PeerManager.cpp ----------------------------------------------===//

#include "fabric/PeerManager.h"

#include "fabric/Handshake.h"
#include "support/Time.h"

#include <chrono>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace unit;

namespace {

/// Announcements parked while peers are slow or down. Oldest drop first:
/// a lost announcement costs the fleet one fetch round-trip later, never
/// correctness.
constexpr size_t MaxQueuedAnnouncements = 4096;

/// Entries per push_cache frame — keeps every frame far under the
/// protocol limit whatever the key sizes.
constexpr size_t MaxEntriesPerPush = 512;

/// Seconds before re-dialing a peer that refused the last dial.
constexpr double DialBackoffSeconds = 1.0;

} // namespace

PeerManager::PeerManager(PeerManagerConfig ConfigIn)
    : Config(std::move(ConfigIn)) {
  Links.reserve(Config.Peers.size());
  for (const Endpoint &Ep : Config.Peers) {
    auto P = std::make_unique<Peer>();
    P->Ep = Ep;
    Links.push_back(std::move(P));
  }
}

PeerManager::~PeerManager() { stop(); }

void PeerManager::start() {
  if (Started || Links.empty())
    return;
  Started = true;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    ShuttingDown = false;
  }
  Pusher = std::thread([this] { pusherLoop(); });
}

void PeerManager::stop() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (ShuttingDown && !Pusher.joinable())
      return;
    ShuttingDown = true;
    Queue.clear();
  }
  QueueCv.notify_all();
  if (Pusher.joinable())
    Pusher.join();
  for (auto &P : Links) {
    std::lock_guard<std::mutex> Lock(P->Mu);
    closeLocked(*P);
  }
}

void PeerManager::announce(const std::string &Key,
                           const KernelReport &Report) {
  if (Links.empty())
    return;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (ShuttingDown)
      return;
    if (Queue.size() >= MaxQueuedAnnouncements)
      Queue.pop_front();
    Queue.push_back(KernelCache::ExportedEntry{Key, Report});
  }
  QueueCv.notify_one();
}

//===----------------------------------------------------------------------===//
// Link management
//===----------------------------------------------------------------------===//

void PeerManager::closeLocked(Peer &P) {
  if (P.Fd < 0)
    return;
  ::close(P.Fd);
  P.Fd = -1;
  P.Frames.reset(-1);
  P.FingerprintMatch = false;
  ConnectedCount.fetch_sub(1);
}

std::optional<Json> PeerManager::exchangeLocked(Peer &P, const Json &Request) {
  if (P.Fd < 0)
    return std::nullopt;
  if (!writeFrame(P.Fd, Request.dump())) {
    closeLocked(P);
    return std::nullopt;
  }
  std::string Payload;
  if (P.Frames.next(Payload) != FrameStatus::Ok) {
    closeLocked(P);
    return std::nullopt;
  }
  std::optional<Json> Reply = Json::parse(Payload);
  if (!Reply)
    closeLocked(P); // A peer speaking garbage is a dead link.
  return Reply;
}

bool PeerManager::ensureExchangeableLocked(Peer &P) {
  if (P.Fd >= 0)
    return P.FingerprintMatch;
  double Now = steadyNowSeconds();
  if (Now < P.RetryAtSeconds)
    return false;
  P.RetryAtSeconds = Now + DialBackoffSeconds;

  int Fd = dialTcp(P.Ep);
  if (Fd < 0)
    return false;
  // Bound every exchange: a hung peer must cost a cold compile at most
  // one timeout before the local tuner takes over.
  timeval Timeout;
  Timeout.tv_sec = Config.IoTimeoutSeconds > 0 ? Config.IoTimeoutSeconds : 10;
  Timeout.tv_usec = 0;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  P.Frames.reset(Fd);
  if (!answerAuthChallenge(P.Frames, Config.Secret)) {
    P.Frames.reset(-1);
    ::close(Fd);
    return false;
  }
  P.Fd = Fd;
  ConnectedCount.fetch_add(1);

  Json Hello = Json::object();
  Hello.set("type", "hello");
  Hello.set("client", Config.SelfName);
  std::optional<Json> Welcome = exchangeLocked(P, Hello);
  if (!Welcome || Welcome->str("type") != "welcome") {
    closeLocked(P);
    return false;
  }
  // The strictness that makes exchange safe: identical persistence
  // fingerprints or nothing. The link stays up (it still answers
  // stats-style traffic and may match after a peer upgrade reconnect),
  // but no entry crosses it.
  P.FingerprintMatch = Welcome->str("fingerprint") == Config.Fingerprint;
  if (!P.FingerprintMatch)
    return false;

  // First contact on a matching link: pull the peer's ready entries so a
  // daemon joining an established fleet starts warm instead of paying a
  // fetch round-trip per cold key. Byte-capped by the *serving* side too;
  // existing local entries win on import.
  Json Fetch = Json::object();
  Fetch.set("type", "fetch_cache");
  Fetch.set("fingerprint", Config.Fingerprint);
  std::optional<Json> Reply = exchangeLocked(P, Fetch);
  if (Reply && Reply->str("type") == "cache_entries")
    importEntries(*Reply);
  return P.Fd >= 0 && P.FingerprintMatch;
}

std::vector<KernelCache::ExportedEntry>
PeerManager::importEntries(const Json &Reply) {
  std::vector<KernelCache::ExportedEntry> Decoded;
  const Json *Entries = Reply.get("entries");
  if (!Entries || !Entries->isArray())
    return Decoded;
  for (const Json &E : Entries->items()) {
    KernelCache::ExportedEntry X;
    X.Key = E.str("key");
    const Json *ReportJson = E.get("report");
    std::string Err;
    if (X.Key.empty() || !ReportJson ||
        !kernelReportFromJson(*ReportJson, X.Report, Err))
      continue; // Malformed entries are skipped, not fatal.
    Decoded.push_back(std::move(X));
  }
  if (Config.Cache && !Decoded.empty())
    FetchedCount.fetch_add(Config.Cache->importReady(Decoded));
  return Decoded;
}

//===----------------------------------------------------------------------===//
// The two exchange directions
//===----------------------------------------------------------------------===//

std::optional<KernelReport>
PeerManager::fetchMissing(const std::string &Key) {
  for (auto &PPtr : Links) {
    Peer &P = *PPtr;
    double Probe0 = steadyNowSeconds();
    std::lock_guard<std::mutex> Lock(P.Mu);
    if (!ensureExchangeableLocked(P))
      continue;
    Json Req = Json::object();
    Req.set("type", "fetch_cache");
    Req.set("fingerprint", Config.Fingerprint);
    Json Keys = Json::array();
    Keys.push(Key);
    Req.set("keys", std::move(Keys));
    std::optional<Json> Reply = exchangeLocked(P, Req);
    // One sample per completed exchange — failed dials and transport
    // errors are not RTTs.
    if (Reply)
      FetchRttHist.record(steadyNowSeconds() - Probe0);
    if (!Reply || Reply->str("type") != "cache_entries")
      continue;
    for (KernelCache::ExportedEntry &E : importEntries(*Reply))
      if (E.Key == Key) {
        FetchHitCount.fetch_add(1);
        return std::move(E.Report);
      }
  }
  FetchMissCount.fetch_add(1);
  return std::nullopt;
}

void PeerManager::pusherLoop() {
  while (true) {
    std::vector<KernelCache::ExportedEntry> Batch;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      // Timed wait, not pure event wait: the tick is also the dial-retry
      // cadence that brings warm sync to a peer that was down when its
      // announcements would have arrived.
      QueueCv.wait_for(Lock, std::chrono::milliseconds(250), [this] {
        return ShuttingDown || !Queue.empty();
      });
      if (ShuttingDown)
        return;
      while (!Queue.empty() && Batch.size() < MaxEntriesPerPush) {
        Batch.push_back(std::move(Queue.front()));
        Queue.pop_front();
      }
    }

    if (Batch.empty()) {
      // Idle tick: keep links dialed (first contact warm-syncs).
      for (auto &P : Links) {
        std::lock_guard<std::mutex> Lock(P->Mu);
        ensureExchangeableLocked(*P);
      }
      continue;
    }

    Json Entries = Json::array();
    for (const KernelCache::ExportedEntry &E : Batch) {
      Json EJ = Json::object();
      EJ.set("key", E.Key);
      EJ.set("report", toJson(E.Report));
      Entries.push(std::move(EJ));
    }
    Json Push = Json::object();
    Push.set("type", "push_cache");
    Push.set("fingerprint", Config.Fingerprint);
    Push.set("entries", std::move(Entries));

    for (auto &PPtr : Links) {
      Peer &P = *PPtr;
      std::lock_guard<std::mutex> Lock(P.Mu);
      if (!ensureExchangeableLocked(P))
        continue; // Down or mismatched: this batch skips the peer.
      std::optional<Json> Reply = exchangeLocked(P, Push);
      if (Reply && Reply->str("type") == "cache_pushed")
        PushedCount.fetch_add(
            static_cast<uint64_t>(Reply->integer("accepted", 0)));
    }
  }
}

PeerManager::Stats PeerManager::stats() const {
  Stats S;
  S.PeersConnected = ConnectedCount.load();
  S.EntriesPushed = PushedCount.load();
  S.EntriesFetched = FetchedCount.load();
  S.FetchHits = FetchHitCount.load();
  S.FetchMisses = FetchMissCount.load();
  return S;
}
