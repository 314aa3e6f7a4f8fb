//===- fabric/PeerManager.h - Peer cache exchange for the fleet ----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet side of the compile fabric: one PeerManager per daemon owns
/// a dialed connection to every configured --peer endpoint and moves
/// tuned-kernel reports between same-fingerprint caches, two ways —
///
///   announce: every fresh compile enqueues its (key, report); a
///     background pusher batches the queue into push_cache frames for
///     each live peer, so a kernel tuned once propagates fleet-wide
///     within a flush. Best-effort: the queue is bounded, a dead peer
///     drops its batch, and the compiling thread never blocks.
///
///   fetchMissing: the single-flight winner of a cold cache miss probes
///     peers with a one-key fetch_cache before invoking the tuner. A hit
///     imports the report and the compile resolves as a cache hit —
///     cluster-wide, a kernel is tuned once, not once per host.
///
/// Peer links are plain protocol connections (dial, shared-secret
/// handshake, hello/welcome) with one strictness on top: the welcome's
/// persistence fingerprint must equal ours exactly, or the link stays
/// connected but exchanges nothing — reports are only valid on machines
/// whose backends, tuning spaces, and format revision all match, and a
/// mismatched fleet silently trading entries would poison every cache.
/// On the first matching connect the manager also bulk-fetches the
/// peer's ready entries (byte-capped) so a daemon joining an established
/// fleet starts warm.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_FABRIC_PEERMANAGER_H
#define UNIT_FABRIC_PEERMANAGER_H

#include "fabric/Endpoint.h"
#include "obs/Histogram.h"
#include "runtime/KernelCache.h"
#include "server/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace unit {

struct PeerManagerConfig {
  /// Endpoints to dial (from --peer). Peers that are down are retried
  /// with backoff for the daemon's lifetime — fleet membership is
  /// configuration, not liveness.
  std::vector<Endpoint> Peers;
  /// Shared secret for the challenge handshake (same one the local TCP
  /// listener verifies).
  std::string Secret;
  /// Our persistence fingerprint, compared against each peer's welcome.
  std::string Fingerprint;
  /// Client name announced in hello (shows up in peers' stats).
  std::string SelfName = "unit-fabric-peer";
  /// Byte cap on one bulk warm-sync exchange.
  size_t MaxExchangeBytes = 4u << 20;
  /// Per-operation socket timeout: a hung peer must cost a cold compile
  /// at most this before it falls through to the local tuner.
  int IoTimeoutSeconds = 10;
  /// Cache that fetched and warm-synced entries import into.
  KernelCache *Cache = nullptr;
};

class PeerManager {
public:
  /// Exchange counters, surfaced in the server's `stats` fabric section.
  struct Stats {
    uint64_t PeersConnected = 0; ///< Live links right now (gauge).
    uint64_t EntriesPushed = 0;  ///< Entries peers accepted from our pushes.
    uint64_t EntriesFetched = 0; ///< Entries imported from peers (fetch+sync).
    uint64_t FetchHits = 0;      ///< Cold misses a peer resolved.
    uint64_t FetchMisses = 0;    ///< Cold misses no peer had.
  };

  explicit PeerManager(PeerManagerConfig Config);
  ~PeerManager();

  PeerManager(const PeerManager &) = delete;
  PeerManager &operator=(const PeerManager &) = delete;

  /// Starts the pusher thread (which also performs the initial dials and
  /// warm sync, off the caller's thread).
  void start();

  /// Flushes nothing, drops the queue, closes every link, joins the
  /// pusher. Idempotent.
  void stop();

  /// Enqueues one freshly tuned report for broadcast. Never blocks: the
  /// queue is bounded and drops oldest-first when full (announcements
  /// are an optimization — the fetch path is the correctness backstop).
  void announce(const std::string &Key, const KernelReport &Report);

  /// Probes every same-fingerprint peer for \p Key (in configuration
  /// order, first hit wins), imports the returned entries, and hands the
  /// report back. Blocking, bounded by IoTimeoutSeconds per peer; called
  /// by the session's cold-miss hook on the compile winner's thread.
  std::optional<KernelReport> fetchMissing(const std::string &Key);

  Stats stats() const;
  size_t configuredPeers() const { return Config.Peers.size(); }

  /// Round-trip distribution of cold-miss fetch_cache exchanges (dial +
  /// request + reply per probed peer) — the unit_peer_fetch_seconds
  /// metrics family.
  obs::HistogramSnapshot fetchRtt() const { return FetchRttHist.snapshot(); }

private:
  /// One dialed peer link. Mu serializes the request/response exchanges
  /// (pusher flushes and cold-miss fetches interleave at frame
  /// granularity); the link is strictly client-side, so no reader thread
  /// is needed — every frame we read is the reply to a frame we wrote
  /// (the server pushes notifications only for compile_async tickets,
  /// which peer links never submit).
  struct Peer {
    Endpoint Ep;
    std::mutex Mu;
    int Fd = -1;
    /// The link's one reader, bound to Fd from the handshake on.
    FrameReader Frames;
    bool FingerprintMatch = false;
    double RetryAtSeconds = 0; ///< Dial backoff deadline (steady clock).
  };

  /// Dials + authenticates + hellos \p P if it is down (honoring its
  /// backoff), comparing fingerprints from the welcome; on the first
  /// matching connect, bulk warm-syncs. P.Mu must be held. Returns true
  /// when the link is up *and* fingerprints match.
  bool ensureExchangeableLocked(Peer &P);

  /// One request/response on \p P's link (P.Mu held). A transport
  /// failure closes the link (next use redials) and returns nullopt.
  std::optional<Json> exchangeLocked(Peer &P, const Json &Request);

  /// Decodes a cache_entries reply's entries array (skipping malformed
  /// items) and imports them; returns the imported entries.
  std::vector<KernelCache::ExportedEntry> importEntries(const Json &Reply);

  void closeLocked(Peer &P);
  void pusherLoop();

  PeerManagerConfig Config;
  std::vector<std::unique_ptr<Peer>> Links;

  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<KernelCache::ExportedEntry> Queue;
  bool ShuttingDown = false;
  std::thread Pusher;
  bool Started = false;

  std::atomic<uint64_t> ConnectedCount{0};
  std::atomic<uint64_t> PushedCount{0};
  std::atomic<uint64_t> FetchedCount{0};
  std::atomic<uint64_t> FetchHitCount{0};
  std::atomic<uint64_t> FetchMissCount{0};
  obs::LatencyHistogram FetchRttHist;
};

} // namespace unit

#endif // UNIT_FABRIC_PEERMANAGER_H
