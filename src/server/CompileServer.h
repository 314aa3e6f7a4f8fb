//===- server/CompileServer.h - Cross-model batch compile daemon ----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer over CompilerSession: one daemon accepting many
/// clients on a Unix-domain socket (length-prefixed JSON messages, see
/// docs/SERVER.md), all sharing one session — so isomorphic layers of
/// concurrently submitted models single-flight onto one tuner run, and a
/// model one client already compiled is a pure cache hit for the next.
/// The *session*, not a model, is the unit of deployment.
///
/// Admission control: each compile request carries CompileOptions, and
/// each client may be capped to a per-client tuning budget at hello time;
/// the server clamps every request's MaxCandidates to the client's cap and
/// the server-wide cap, whichever is tighter.
///
/// Streaming: compile_async answers with a ticket immediately and the
/// result is pushed later as a notification, so one connection pipelines
/// many compiles. One writer per connection: every outbound frame — the
/// connection thread's replies and the notifications that completion
/// threads (pool workers, or a cold winner draining its joiners) produce
/// in completion order — is appended to the connection's FIFO outbox,
/// and only the connection thread writes the outbox to the socket. A
/// client that stops reading therefore stalls its own connection thread
/// and nothing else. The connection thread reads requests through the
/// socket's one FrameReader, which takes a pipelined burst in one read,
/// and flushes the outbox once after the burst's last buffered request
/// (or once ChunkBytes of replies are queued) instead of once per
/// request. The submitted reply is queued before the job starts, so the
/// FIFO alone puts every result behind the ticket that names it.
///
/// Persistence: when configured with a cache file the server loads it at
/// start (warm restart: zero tuner invocations for known kernels), saves
/// it periodically while compiles are happening, and saves once more on
/// graceful shutdown.
///
/// Shutdown is orderly: stop() (or a client's shutdown message followed
/// by the owner calling stop()) closes the listener, lets every in-flight
/// request finish and deliver its response, quiesces the session's async
/// jobs, persists, and only then returns.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_SERVER_COMPILESERVER_H
#define UNIT_SERVER_COMPILESERVER_H

#include "fabric/PeerManager.h"
#include "runtime/CompilerSession.h"
#include "server/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace unit {

struct ServerConfig {
  /// Unix-domain socket path the daemon listens on. Required. Kept short
  /// (sun_path is ~100 bytes); an existing stale socket file is replaced.
  std::string SocketPath;

  /// Kernel-cache persistence file; empty disables persistence.
  std::string CacheFile;

  /// Seconds between periodic cache saves (only when compiles happened
  /// since the last save); <= 0 disables the periodic thread — the cache
  /// is then saved only on graceful shutdown.
  double PersistIntervalSeconds = 30.0;

  /// Server-wide tuning-budget cap applied to every request
  /// (<= 0 = unlimited). Per-client caps from hello tighten it further.
  int MaxCandidatesCap = 0;

  /// TCP listen endpoint ("host:port", "[v6addr]:port", or ":port";
  /// port 0 = OS-assigned, discoverable via tcpPort()). Empty = Unix
  /// socket only. Requires a non-empty Secret — every TCP connection is
  /// gated by the shared-secret challenge handshake before its first
  /// request frame.
  std::string TcpListen;

  /// Shared secret for the fabric handshake (fabric/Handshake.h). Never
  /// crosses the wire; required when TcpListen or Peers are set.
  std::string Secret;

  /// Peer daemon endpoints ("host:port") to exchange tuned-kernel cache
  /// entries with (fabric/PeerManager.h). Peers whose persistence
  /// fingerprint differs exchange nothing, by design.
  std::vector<std::string> Peers;

  /// Test hook: the fingerprint announced to / compared against peers
  /// instead of CompilerSession::persistenceFingerprint(). Lets tests
  /// prove the mismatch path without faking a whole divergent target
  /// registry.
  std::string PeerFingerprintOverride;

  /// Byte cap on one bulk peer cache exchange (fetch_cache with no key
  /// list). 0 = the PeerManager default.
  size_t MaxPeerExchangeBytes = 4u << 20;

  /// Compile-lifecycle tracing (docs/OBSERVABILITY.md): when enabled the
  /// server owns a TraceRecorder (256 KiB ring per writer thread), roots
  /// each request's span tree on it, and serves `dump_trace`. Off costs
  /// nothing; on costs one ring write per span.
  bool TraceEnabled = true;

  /// When set, stop() writes the final trace as Chrome trace-event JSON
  /// here (the --trace-out flag) — load it in Perfetto.
  std::string TraceOutFile;

  /// Compiles (blocking or streaming) whose server-side wall time is at
  /// least this many milliseconds get a one-line span digest on stderr;
  /// <= 0 disables the slow log.
  double SlowCompileMillis = 0;

  /// The session to serve. Null = the server constructs a private one
  /// from SessionCfg (the common daemon case; tests pass their own).
  std::shared_ptr<CompilerSession> Session;
  SessionConfig SessionCfg;
};

class CompileServer {
public:
  explicit CompileServer(ServerConfig Config);
  ~CompileServer();

  CompileServer(const CompileServer &) = delete;
  CompileServer &operator=(const CompileServer &) = delete;

  /// Binds + listens + starts the accept loop (and the persist thread
  /// when configured). Loads CacheFile first when present. Returns false
  /// with \p Err filled on socket errors.
  bool start(std::string *Err = nullptr);

  /// Graceful shutdown; idempotent and safe to call concurrently from
  /// any thread that is not a connection handler — late callers block
  /// until the teardown in progress completes (so a destructor racing an
  /// explicit stop() never destroys members still in use). See file
  /// comment for the ordering.
  void stop();

  bool running() const { return Running.load(); }

  /// Blocks until a client sends a shutdown message, stop() runs, or
  /// \p InterruptFlag (when non-null, e.g. wired to SIGINT) becomes
  /// non-zero. The caller still calls stop() afterwards.
  void waitForShutdownRequest(
      const volatile std::sig_atomic_t *InterruptFlag = nullptr);

  CompilerSession &session() { return *Session; }
  const std::string &socketPath() const { return Config.SocketPath; }

  /// The port the TCP listener is bound to (0 when TcpListen is unset).
  /// With "--listen-tcp host:0" this is where the OS-assigned port
  /// becomes known — tests and supervisors read it instead of racing a
  /// log line.
  uint16_t tcpPort() const { return BoundTcpPort; }

  /// Outcome of start()'s CacheFile load — lets the host warn when a
  /// warm-start file was rejected (corrupted, or written under another
  /// machine/tuner fingerprint) instead of starting cold in silence.
  const KernelCache::LoadResult &cacheLoadResult() const { return CacheLoad; }

  /// Lifetime totals (also surfaced through the stats message).
  struct Totals {
    uint64_t Connections = 0;
    uint64_t Requests = 0;
    /// Kernels this server actually compiled (race-free, from the
    /// compile itself): cache hits and single-flight joins of another
    /// client's in-flight compile never count.
    uint64_t CompiledKernels = 0;
    uint64_t Errors = 0; ///< Error responses sent.
  };
  Totals totals() const;

private:
  /// Everything the server tracks about one client name: admission cap
  /// and latency accounting. Kept by name across reconnects.
  struct ClientStats {
    int MaxCandidatesCap = 0; ///< <= 0 = uncapped (beyond the server cap).
    uint64_t Requests = 0;
    uint64_t CompileRequests = 0;
    uint64_t LayersRequested = 0;
    uint64_t LayersFromCache = 0;
    double TotalSeconds = 0; ///< Wall time spent serving this client.
    double MaxSeconds = 0;
  };

  struct Connection {
    /// Closes Fd and WakeFd; only the reaper and stop() destroy a
    /// Connection, after joining its thread.
    ~Connection();

    /// Written only by the connection thread (serveConnection).
    int Fd = -1;
    /// Fd's one reader (handshake included); only the connection thread
    /// reads through it.
    FrameReader Frames;
    /// An eventfd that completion threads signal, under TicketMu, when
    /// they queue a frame into an empty Outbox or resolve the last
    /// pending job; the connection thread polls it beside Fd.
    int WakeFd = -1;
    /// TCP connections must pass the shared-secret challenge before
    /// their first request frame; Unix connections skip it (filesystem
    /// permissions on the socket path are their gate).
    bool NeedsAuth = false;
    /// Set once the challenge succeeds. Handlers that mutate global
    /// state (register_target) re-check NeedsAuth implies Authed as
    /// defense in depth, so a dispatch-path regression fails closed.
    bool Authed = false;
    /// From hello; connections that never introduce themselves share the
    /// "(anonymous)" stats bucket — per-connection names would grow the
    /// Clients map without bound on a daemon serving short connections.
    std::string ClientName;
    std::thread Thread;
    std::atomic<bool> Done{false};

    /// Guards everything below. UnresolvedJobs counts the pending
    /// compile_async tickets: completion callbacks not yet fired. The
    /// budget check reads it, and the drain keeps this Connection alive
    /// until it reads zero.
    std::mutex TicketMu;
    uint64_t NextTicket = 1;
    size_t UnresolvedJobs = 0;
    /// Already-framed bytes waiting for the connection thread, in the
    /// order they were queued. The connection thread reads from the
    /// socket only after a full flush, and flushes once its replies reach
    /// FrameReader::ChunkBytes, so this never holds more than ChunkBytes
    /// plus one reply, plus one notification per pending ticket (at most
    /// MaxPendingTicketsPerConnection).
    std::string Outbox;
    /// Result notifications among the Outbox frames (trace accounting).
    size_t QueuedNotifications = 0;
  };

  /// One accept loop per listener: the Unix socket and (when configured)
  /// the TCP listener each run this on their own thread. \p RequireAuth
  /// marks accepted connections for the handshake gate.
  void acceptLoop(int ListenerFd, bool RequireAuth);
  void serveConnection(Connection &Conn);
  void persistLoop();
  /// Joins and closes finished connections. Called from the accept loop
  /// on every new connection *and* on fd exhaustion — finished fds are
  /// closed only here and in stop(), and freeing them is what gets
  /// accept() past EMFILE.
  void reapFinishedConnections();

  /// Sets ShutdownRequested and wakes waitForShutdownRequest() and the
  /// persist thread — the one place the signaling sequence lives.
  void requestShutdown();

  /// Dispatches one request; returns the response message (null when the
  /// handler queued its reply itself, as compile_async does) and sets
  /// \p CloseAfter for shutdown. Compile handlers turn a failed compile
  /// into an error reply through finishCompile; serveConnection still
  /// wraps the call in an exception barrier, so anything else that
  /// throws (bad_alloc, say) becomes an error response instead of
  /// terminating the daemon.
  Json handleRequest(Connection &Conn, const Json &Request, bool &CloseAfter);
  Json handleHello(Connection &Conn, const Json &Request);
  Json handleCompile(Connection &Conn, const Json &Request);
  Json handleCompileAsync(Connection &Conn, const Json &Request);
  Json handleCompileModel(Connection &Conn, const Json &Request);
  Json handleListTargets(const Json &Request);
  Json handleRegisterTarget(Connection &Conn, const Json &Request);
  Json handleStats(const Json &Request);
  Json handleSaveCache(const Json &Request);
  /// Observability handlers (docs/OBSERVABILITY.md): `metrics` serves
  /// every latency-histogram family; `dump_trace` serves the recorder's
  /// current contents as Chrome trace-event JSON.
  Json handleMetrics(const Json &Request);
  Json handleDumpTrace(const Json &Request);
  /// Peer exchange handlers (docs/SERVER.md, "Fleet"). A fingerprint
  /// mismatch answers with zero entries / zero accepted — an empty
  /// exchange, not an error, so mixed fleets degrade to independence.
  Json handleFetchCache(const Json &Request);
  Json handlePushCache(const Json &Request);

  /// The fingerprint peer exchange is keyed on (the override, or the
  /// session's persistence fingerprint).
  std::string peerFingerprint() const;

  /// Decodes target/workload/options out of a compile or compile_async
  /// request (the shared half of the two handlers). On failure returns
  /// false with \p ErrorReply filled.
  bool parseCompileRequest(Connection &Conn, const Json &Request,
                           std::optional<CompileRequest> &Out,
                           Json &ErrorReply);

  /// Queues \p Reply into the outbox, replaced by a minimal error frame
  /// when it exceeds MaxFrameBytes. Connection thread only.
  void queueReply(Connection &Conn, const Json &Reply);

  /// Writes the outbox to Conn.Fd until it is empty. On a write error
  /// (peer gone, the send timeout, or stop()) shuts the socket down, so
  /// later flushes fail fast and discard, and returns false. Connection
  /// thread only.
  bool flushOutbox(Connection &Conn);

  /// Writes \p Bytes to Conn.Fd: a non-blocking send, and only while the
  /// socket is full a poll for room beside Conn.WakeFd. Returns false on
  /// a write error, after 30 s without progress, or when a wake finds
  /// Stopping set — so stop() never waits on a client that has stopped
  /// reading.
  bool sendOutbox(Connection &Conn, const std::string &Bytes);

  /// The completion hook for one streaming job: runs finishCompile,
  /// queues the notification, and wakes the connection thread. Runs on
  /// whichever thread resolves the job (see CompilerSession::JobCallback)
  /// and never touches the socket.
  void finishTicket(Connection &Conn, uint64_t Ticket, double SubmitSeconds,
                    const KernelReport *Report, std::exception_ptr Error,
                    bool Computed);

  /// Clamps \p Requested through the client's and the server's budget
  /// caps (tightest positive cap wins; <= 0 stays "full space" only when
  /// no cap applies).
  int effectiveBudget(const std::string &ClientName, int Requested) const;

  /// The stats bucket for \p ClientName, bounded: hello names are
  /// caller-controlled, so past MaxClientBuckets distinct names new ones
  /// fold into one "(overflow)" bucket instead of growing the map (and
  /// every stats response) without bound over a daemon's uptime.
  /// StatsMu must be held.
  ClientStats &clientSlotLocked(const std::string &ClientName);

  Json errorResponse(const Json &Request, const std::string &Message);

  /// The one completion path every compile request shares (compile,
  /// compile_model, and each compile_async ticket): the persist thread's
  /// dirty tick, the slow-compile digest, the per-client served row and,
  /// when \p Error is set, the error count. \p Ticket is 0 on blocking
  /// paths; \p Report is null for compile_model and on failure. Returns
  /// the failure's error-frame message, empty on success.
  std::string finishCompile(Connection &Conn, double SubmitSeconds,
                            uint64_t Ticket, const KernelReport *Report,
                            uint64_t Layers,
                            uint64_t FromCache, uint64_t Fresh,
                            std::exception_ptr Error);

  ServerConfig Config;
  std::shared_ptr<CompilerSession> Session;

  int ListenFd = -1;
  /// TCP side of the fabric (−1 when TcpListen is unset); its own accept
  /// thread feeds the same serveConnection, behind the handshake gate.
  int TcpListenFd = -1;
  uint16_t BoundTcpPort = 0;
  std::thread TcpAcceptThread;
  /// Peer cache exchange (null when no --peer endpoints).
  std::unique_ptr<PeerManager> PeerMgr;
  /// flock()-held for the server's lifetime ("<socket>.lock"): the
  /// authoritative claim on the socket path. The connect()-probe in
  /// start() only produces a nicer message; the lock is what prevents
  /// two daemons racing a stale socket from both binding (and stop()
  /// from unlinking a replacement's live socket).
  int LockFd = -1;
  std::thread AcceptThread;
  std::thread PersistThread;
  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};
  /// Serializes stop() so a second caller returns only after teardown
  /// finished, not while it is in progress.
  std::mutex StopMu;

  mutable std::mutex ConnMu;
  std::vector<std::unique_ptr<Connection>> Connections;

  mutable std::mutex StatsMu;
  std::map<std::string, ClientStats> Clients; ///< Ordered => stable stats.
  Totals Lifetime;
  double StartSeconds = 0;
  /// From start(); see cacheLoadResult(). Initialized to FileNotFound
  /// (LoadResult's own default is BadFormat, which would read as a
  /// corruption warning on a server configured without a cache file).
  KernelCache::LoadResult CacheLoad{KernelCache::LoadStatus::FileNotFound, 0};

  std::mutex ShutdownMu;
  std::condition_variable ShutdownCv;
  bool ShutdownRequested = false;

  /// Serializes cache saves: the persist thread, save_cache handlers,
  /// and stop() must never write one file concurrently (saveFile is
  /// atomic per call via tmp+rename, but interleaved renames would
  /// still race on which snapshot wins).
  std::mutex SaveMu;

  /// Compiles completed since the last persist (persist thread trigger).
  std::atomic<uint64_t> CompilesSinceSave{0};

  /// Streaming lifetime counters (surfaced in the stats message's
  /// "streaming" object; atomics because notifications complete on pool
  /// workers, not the stats-serving thread).
  std::atomic<uint64_t> TicketsIssued{0};
  std::atomic<uint64_t> NotificationsDelivered{0};

  /// Fabric lifetime counters (the stats message's "fabric" object).
  std::atomic<uint64_t> AuthFailures{0};
  std::atomic<uint64_t> PeerFetchesServed{0};
  std::atomic<uint64_t> PeerPushesServed{0};
  std::atomic<uint64_t> PeerEntriesServed{0};
  std::atomic<uint64_t> PeerEntriesAccepted{0};

  /// Request-frame round trip (read -> reply written), all request
  /// types — the unit_frame_seconds metrics family.
  obs::LatencyHistogram FrameLatencyHist;

  /// The recorder this server's request trees record into: the request
  /// and notification_write roots name it, every other span inherits it
  /// from its parent. Freed in stop() once quiesce() has closed every
  /// span on it. Null when TraceEnabled is false.
  std::unique_ptr<obs::TraceRecorder> Trace;
};

} // namespace unit

#endif // UNIT_SERVER_COMPILESERVER_H
