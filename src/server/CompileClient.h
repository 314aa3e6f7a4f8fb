//===- server/CompileClient.h - Compile-server client library -------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the compile-server protocol (docs/SERVER.md): a
/// single-connection handle that frames requests, awaits replies, and
/// decodes them back into runtime types. The client owns no thread: a
/// call that needs a frame reads it off the socket itself and dispatches
/// whatever it reads on the way — a reply to the request in flight, a
/// pushed "result" notification (keyed by ticket) to that ticket's
/// future. So a result lands when some client call reads it, and one
/// connection can keep many compiles in flight at once.
///
/// Two ways to compile:
///   - blocking: compileConv / compileModel — one request, one reply,
///     strictly serialized;
///   - streaming: submitConv (or submitModelLayers, which pipelines a
///     whole model's submissions before collecting any reply) returns an
///     AsyncHandle whose future resolves when a call reads the pushed
///     result — out of order with respect to submission is the norm.
///     wait()/waitAll() block until it lands. Other workload kinds
///     (conv3d, dense) go through request().
///
/// A dropped connection is final: every pending future, and the round
/// trip in flight, fails with the transport error. Reconnecting means a
/// fresh connect() and resubmitting whatever still matters.
///
/// Threading: the request-issuing methods (everything that writes to the
/// socket, and connect/close) must be called from one thread at a time;
/// wait()/waitAll() may be called from any thread, alongside them. One
/// caller reads at a time; the others wait until their frame has been
/// read for them, the reading role is free, or the connection died. Every
/// typed call returns std::nullopt / false on failure and fills the
/// optional \p Err out-param with either the transport error or the
/// server's error-message payload. request() is the raw escape hatch the
/// tests use to exercise malformed traffic.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_SERVER_COMPILECLIENT_H
#define UNIT_SERVER_COMPILECLIENT_H

#include "server/Protocol.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace unit {

class CompileClient {
public:
  CompileClient() = default;
  ~CompileClient();

  CompileClient(const CompileClient &) = delete;
  CompileClient &operator=(const CompileClient &) = delete;

  /// Connects to the server's Unix socket. Does not send hello.
  bool connect(const std::string &SocketPath, std::string *Err = nullptr);

  /// Fabric connect: dials \p Endpoints in order and keeps the first one
  /// that accepts; the rest of the list is not used afterwards. An
  /// endpoint is a Unix socket path (recognized by shape: "/...",
  /// "./...", "../...") or a TCP "host:port" / "[v6addr]:port"; TCP dials
  /// answer the server's shared-secret challenge with \p Secret
  /// (fabric/Handshake.h — the secret itself never crosses the wire).
  /// Fails with the first endpoint's error when none accepts.
  bool connect(const std::vector<std::string> &Endpoints,
               const std::string &Secret, std::string *Err = nullptr);
  void close();
  /// False once any read has seen the server close the connection, even
  /// before a request fails on it; connect() makes it true again.
  bool connected() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Fd >= 0 && !Dead;
  }

  /// Sends one request frame and reads the matching response frame
  /// (notifications that arrive in between are dispatched to their
  /// tickets, never returned here).
  std::optional<Json> request(const Json &Request, std::string *Err = nullptr);

  /// hello handshake; \p MaxCandidates > 0 registers a per-client tuning
  /// budget the server will clamp every later request to. Returns the
  /// welcome message (server name, protocol version, streaming flag,
  /// cache fingerprint).
  std::optional<Json> hello(const std::string &ClientName,
                            int MaxCandidates = 0, std::string *Err = nullptr);

  struct CompileResult {
    KernelReport Report;
    bool Cached = false; ///< Served from a pre-existing ready entry.
    /// Delivery sequence on this connection (1 = first notification
    /// read); 0 for blocking results. Lets callers observe out-of-order
    /// completion without timestamping.
    uint64_t Arrival = 0;
  };
  std::optional<CompileResult> compileConv(const std::string &Target,
                                           const ConvLayer &Layer,
                                           const CompileOptions &Options = {},
                                           std::string *Err = nullptr);

  //===--------------------------------------------------------------------===//
  // Streaming (compile_async / result notifications)
  //===--------------------------------------------------------------------===//

  /// Handle on one submitted compile: the server-assigned ticket plus a
  /// future resolved when a client call reads the result notification.
  /// Nothing reads on its own, so block through wait()/waitAll(), which
  /// read until it lands; ready() only reports what was read already.
  /// Copyable; all copies observe the same result.
  struct AsyncHandle {
    uint64_t Ticket = 0;
    std::shared_future<CompileResult> Fut;
    bool valid() const { return Fut.valid(); }
    bool ready() const {
      return Fut.valid() && Fut.wait_for(std::chrono::seconds(0)) ==
                                std::future_status::ready;
    }
  };

  std::optional<AsyncHandle> submitConv(const std::string &Target,
                                        const ConvLayer &Layer,
                                        const CompileOptions &Options = {},
                                        std::string *Err = nullptr);

  /// Pipelined batch submission: writes one compile_async frame per conv
  /// layer of \p M, all in one write, then collects the submitted
  /// replies — no per-layer round-trip stall, which is what makes a warm
  /// model zoo stream at socket speed. Handles are index-aligned with
  /// M.Convs.
  std::optional<std::vector<AsyncHandle>>
  submitModelLayers(const std::string &Target, const Model &M,
                    const CompileOptions &Options = {},
                    std::string *Err = nullptr);

  /// Reads frames until \p Handle's result lands; nullopt + \p Err when
  /// the compile failed or the connection died.
  std::optional<CompileResult> wait(const AsyncHandle &Handle,
                                    std::string *Err = nullptr);

  /// Waits for every not-yet-waited submission on this connection.
  /// Returns false (first failure in \p Err) if any ticket failed; the
  /// rest are still joined.
  bool waitAll(std::string *Err = nullptr);

  struct ModelResult {
    std::string ModelName;
    std::vector<KernelReport> Layers;
    size_t DistinctShapes = 0;
    size_t CacheHitLayers = 0;
    double ServerWallSeconds = 0; ///< Compile wall time inside the server.
  };
  std::optional<ModelResult> compileModel(const std::string &Target,
                                          const Model &M,
                                          const CompileOptions &Options = {},
                                          std::string *Err = nullptr);

  /// One backend the server advertises (the list_targets message): its
  /// target id, description, conv3d capability, spec hash, and
  /// instruction names.
  struct TargetInfo {
    std::string Id;
    std::string Description;
    bool SupportsConv3d = false;
    std::string SpecHash;
    /// Where the spec came from: "builtin", "file" (--target-spec), or
    /// "wire" (register_target). Pre-provenance servers read as builtin.
    std::string Source = "builtin";
    std::vector<std::string> Intrinsics;
  };
  /// Asks the server which targets it can compile for — how a client
  /// discovers backends instead of hard-coding an id list.
  std::optional<std::vector<TargetInfo>> listTargets(std::string *Err =
                                                         nullptr);

  /// The server's acknowledgement of a register_target message.
  struct RegisteredTarget {
    std::string Id;
    std::string SpecHash;
    std::string Source;
  };
  /// Registers \p SpecDoc (a target-spec JSON document, the same schema
  /// `unit_serve --target-spec` loads) on the running daemon. The server
  /// validates all-or-nothing and replies with an error frame naming the
  /// offending JSON path on rejection; TCP servers refuse the message on
  /// unauthenticated connections.
  std::optional<RegisteredTarget> registerTarget(const Json &SpecDoc,
                                                 std::string *Err = nullptr);

  /// The server's stats_result message (left as Json: the schema is the
  /// protocol's, docs/SERVER.md; \p Detail adds per-entry cache bytes).
  std::optional<Json> stats(bool Detail = false, std::string *Err = nullptr);

  /// The server's metrics message: latency histogram snapshots (cold /
  /// warm / join compile, frame round-trip, peer fetch RTT, tuner
  /// per-candidate cost) as Json — docs/OBSERVABILITY.md has the schema.
  std::optional<Json> metrics(std::string *Err = nullptr);

  /// The server's dump_trace message: every live span as Chrome
  /// trace-event JSON (the "trace" field loads directly into
  /// chrome://tracing / Perfetto).
  std::optional<Json> dumpTrace(std::string *Err = nullptr);

  /// Asks the server to persist its cache; returns entries written.
  std::optional<size_t> saveCache(const std::string &Path = "",
                                  std::string *Err = nullptr);

  /// Sends shutdown and awaits bye. The server stops accepting after its
  /// owner observes the request; this connection is closed either way.
  bool shutdownServer(std::string *Err = nullptr);

private:
  /// A reply frame for the request in flight, or the parse error when
  /// the peer sent a syntactically broken frame (a real server never
  /// does; a test harness might). Replies keep their wire order.
  struct Reply {
    std::optional<Json> Frame;
    std::string Err;
  };

  /// request() + error-response unwrapping + expected-type check.
  std::optional<Json> roundTrip(const Json &Request, const char *ExpectType,
                                std::string *Err);
  Json makeCompileMessage(const char *Type, const std::string &Target,
                          Json WorkloadJson, const CompileOptions &Options);

  /// Dials one endpoint string (Unix path or TCP host:port, including
  /// the auth handshake with \p Secret for TCP). Returns the connected
  /// fd, with Frames bound to it, or -1.
  int dialEndpoint(const std::string &Ep, const std::string &Secret,
                   std::string *Err);

  /// Writes already-framed bytes (one message, or a whole pipelined
  /// burst). While the socket takes no more bytes, reads and dispatches
  /// frames: the server may be waiting for room to send its replies.
  bool sendFrames(const std::string &Bytes, std::string *Err);
  /// Read side of request(): reads until the next reply frame is there
  /// and takes it; fails when the connection died.
  std::optional<Json> awaitReply(std::string *Err);
  /// Reads frames, one caller at a time, until \p Done() holds; false
  /// when the connection died first. \p Lock holds Mu.
  template <typename DoneFn>
  bool readUntil(std::unique_lock<std::mutex> &Lock, DoneFn Done);
  /// Reads one frame and dispatches it. The caller holds the reading
  /// role; \p Lock is released around the read.
  void readFrame(std::unique_lock<std::mutex> &Lock);
  /// Registers \p Ticket from a submitted reply, claiming any notification
  /// that was read before it.
  AsyncHandle registerTicket(uint64_t Ticket);
  /// Fails every outstanding ticket and marks the connection dead. Mu held.
  void failAllPending(const std::string &Why);

  /// Written only by connect() and close(), on the request-issuing
  /// thread, under Mu; reads go through Frames, never through Fd.
  int Fd = -1;
  uint64_t NextId = 1;

  /// The socket's one reader, used only by the holder of the reading role
  /// (and by connect() before the connection is live); every dial
  /// rebinds it, so a new connection never sees the old one's buffered
  /// bytes. Payload is its frame buffer.
  FrameReader Frames;
  std::string Payload;
  mutable std::mutex Mu; ///< Guards everything below.
  /// Signalled whenever a frame was dispatched, the reading role freed,
  /// or the connection died.
  std::condition_variable Cv;
  bool Reading = false; ///< A caller holds the reading role.
  /// No live connection: none made yet, a read saw it end, or close() ran.
  bool Dead = true;
  std::string DeadReason = "not connected";
  std::deque<Reply> Replies;
  std::unordered_map<uint64_t, std::promise<CompileResult>> Tickets;
  /// Results read before the submitted reply registered their ticket
  /// (warm hits resolve that fast under pipelined submission), settled.
  std::unordered_map<uint64_t, std::promise<CompileResult>> Unclaimed;
  std::vector<AsyncHandle> Outstanding; ///< For waitAll.
  uint64_t ArrivalCounter = 0;
};

} // namespace unit

#endif // UNIT_SERVER_COMPILECLIENT_H
