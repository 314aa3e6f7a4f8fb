//===- server/CompileServer.cpp --------------------------------------------===//

#include "server/CompileServer.h"

#include "fabric/Handshake.h"
#include "obs/Build.h"
#include "runtime/CompileRequest.h"
#include "runtime/Workload.h"
#include "target/MachineOverlay.h"
#include "target/SpecFile.h"
#include "target/TargetRegistry.h"
#include "tuner/Tuner.h"

#include "support/Time.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace unit;

namespace {

/// Shown in stats detail: enough of a canonical structural key to
/// recognize the kernel without shipping (or copying under the cache
/// mutex) the whole serialization.
constexpr size_t MaxShownKeyBytes = 72;

/// Distinct named stats buckets a daemon keeps before folding new names
/// into "(overflow)" (names are caller-controlled wire input).
constexpr size_t MaxClientBuckets = 1024;

/// Concurrent connections the daemon serves. One thread + one fd each;
/// without a cap, stalled peers pin them until fd exhaustion makes even
/// the shutdown message unreachable. Excess connections are accepted
/// and immediately closed (the client sees EOF).
constexpr size_t MaxConnections = 256;

/// How long a write to a client may go without progress before the
/// connection is given up.
constexpr int SendTimeoutSeconds = 30;

/// One line per compile slower than the operator's --slow-compile-ms
/// threshold: enough of a digest to find the request in a trace dump
/// without grepping for it. Ticket 0 marks the blocking compile path.
void logSlowCompile(double ThresholdMillis, double Seconds,
                    const std::string &Client, uint64_t Ticket,
                    const char *Kind, const KernelReport *Report) {
  double Millis = Seconds * 1e3;
  if (ThresholdMillis <= 0 || Millis < ThresholdMillis)
    return;
  std::fprintf(stderr,
               "unit slow-compile: %.1f ms client=%s ticket=%llu kind=%s "
               "candidates=%d intrinsic=%s\n",
               Millis, Client.c_str(),
               static_cast<unsigned long long>(Ticket), Kind,
               Report ? Report->CandidatesTried : -1,
               Report && !Report->IntrinsicName.empty()
                   ? Report->IntrinsicName.c_str()
                   : "(none)");
}

/// The message a failed compile's error frame carries, blocking reply or
/// async notification alike.
std::string failureMessage(std::exception_ptr Error) {
  try {
    std::rethrow_exception(Error);
  } catch (const std::exception &E) {
    return std::string("compile failed: ") + E.what();
  } catch (...) {
    return "compile failed: unknown error";
  }
}

/// An error frame echoing \p Request's id. Callers count the error.
Json errorFrame(const Json &Request, const std::string &Message) {
  Json J = Json::object();
  J.set("type", "error");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("message", Message);
  return J;
}

} // namespace

CompileServer::CompileServer(ServerConfig ConfigIn)
    : Config(std::move(ConfigIn)),
      Session(Config.Session
                  ? Config.Session
                  : std::make_shared<CompilerSession>(Config.SessionCfg)) {}

CompileServer::~CompileServer() { stop(); }

bool CompileServer::start(std::string *Err) {
  // Releases every resource this call acquired; flock drops with the fd.
  auto FailMsg = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    if (TcpListenFd >= 0) {
      ::close(TcpListenFd);
      TcpListenFd = -1;
      BoundTcpPort = 0;
    }
    if (LockFd >= 0) {
      ::close(LockFd);
      LockFd = -1;
    }
    PeerMgr.reset();
    return false;
  };
  auto Fail = [&](const std::string &Msg) {
    return FailMsg(Msg + " (" + std::strerror(errno) + ")");
  };

  if (Running.load()) {
    if (Err)
      *Err = "server already running";
    return false;
  }
  sockaddr_un Addr;
  if (!makeUnixSocketAddr(Config.SocketPath, Addr, Err))
    return false;

  // Claim the path first: a lifetime flock on "<path>.lock" is the
  // authoritative ownership of the socket name. Without it, two daemons
  // racing a *stale* socket can both pass the liveness probe below,
  // and the loser's unlink orphans the winner's freshly bound socket.
  LockFd = ::open((Config.SocketPath + ".lock").c_str(),
                  O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (LockFd < 0)
    return Fail("open(" + Config.SocketPath + ".lock) failed");
  if (::flock(LockFd, LOCK_EX | LOCK_NB) != 0)
    return FailMsg("another server owns " + Config.SocketPath +
                   " (lock held on its .lock file)");

  // Replace a *stale socket* only: anything else at the path (a mistyped
  // --socket pointing at a real file) must never be deleted, and if
  // something answers on the path a daemon is alive there — silently
  // unlinking its socket would orphan it (reachable by nobody, still
  // holding the cache). With the lock held this is belt-and-braces plus
  // a clearer error message.
  struct stat PathStat;
  if (::lstat(Config.SocketPath.c_str(), &PathStat) == 0) {
    if (!S_ISSOCK(PathStat.st_mode))
      return FailMsg(Config.SocketPath + " exists and is not a socket");
    int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Probe >= 0) {
      bool Alive = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                             sizeof(Addr)) == 0;
      ::close(Probe);
      if (Alive)
        return FailMsg("a server is already listening on " +
                       Config.SocketPath);
    }
    ::unlink(Config.SocketPath.c_str()); // Stale (nothing answered).
  }

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket() failed");
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind(" + Config.SocketPath + ") failed");
  if (::listen(ListenFd, 64) < 0)
    return Fail("listen() failed");

  // The fabric's TCP side: an unauthenticated TCP listener would expose
  // the whole compile surface (including shutdown and cache pushes) to
  // the network, so a secret is mandatory with either TCP feature.
  if ((!Config.TcpListen.empty() || !Config.Peers.empty()) &&
      Config.Secret.empty())
    return FailMsg("--listen-tcp/--peer require a shared secret "
                   "(ServerConfig::Secret / --secret-file)");
  if (!Config.TcpListen.empty()) {
    std::string ParseErr;
    std::optional<Endpoint> Listen = parseEndpoint(Config.TcpListen, &ParseErr);
    if (!Listen)
      return FailMsg("bad --listen-tcp endpoint: " + ParseErr);
    TcpListenFd = listenTcp(*Listen, &ParseErr);
    if (TcpListenFd < 0)
      return FailMsg("listen-tcp " + Config.TcpListen + ": " + ParseErr);
    BoundTcpPort = boundTcpPort(TcpListenFd);
  }
  if (!Config.Peers.empty()) {
    PeerManagerConfig PeerCfg;
    for (const std::string &Text : Config.Peers) {
      std::string ParseErr;
      std::optional<Endpoint> Ep = parseEndpoint(Text, &ParseErr);
      if (!Ep)
        return FailMsg("bad --peer endpoint '" + Text + "': " + ParseErr);
      PeerCfg.Peers.push_back(std::move(*Ep));
    }
    PeerCfg.Secret = Config.Secret;
    PeerCfg.Fingerprint = peerFingerprint();
    if (Config.MaxPeerExchangeBytes > 0)
      PeerCfg.MaxExchangeBytes = Config.MaxPeerExchangeBytes;
    PeerCfg.Cache = &Session->cache();
    PeerMgr = std::make_unique<PeerManager>(std::move(PeerCfg));
  }

  if (!Config.CacheFile.empty()) {
    // Sweep temp files a crashed predecessor orphaned, then warm up.
    KernelCache::removeStaleSaves(Config.CacheFile);
    CacheLoad = Session->loadCache(Config.CacheFile); // Missing file: no-op.
  }

  StartSeconds = steadyNowSeconds();
  Stopping.store(false);
  {
    std::lock_guard<std::mutex> Lock(ShutdownMu);
    ShutdownRequested = false;
  }
  // Created before any connection can open a request root on it.
  if (Config.TraceEnabled)
    Trace = std::make_unique<obs::TraceRecorder>();
  Running.store(true);
  // Wire the session into the fleet before any connection can compile:
  // cold winners probe peers before tuning, fresh tunes are announced.
  if (PeerMgr) {
    PeerManager *Mgr = PeerMgr.get();
    Session->setColdMissFetcher(
        [Mgr](const std::string &Key) { return Mgr->fetchMissing(Key); });
    Session->setCompileObserver(
        [Mgr](const std::string &Key, const KernelReport &Report) {
          Mgr->announce(Key, Report);
        });
    PeerMgr->start();
  }
  AcceptThread = std::thread([this] { acceptLoop(ListenFd, false); });
  if (TcpListenFd >= 0)
    TcpAcceptThread =
        std::thread([this] { acceptLoop(TcpListenFd, /*RequireAuth=*/true); });
  if (!Config.CacheFile.empty() && Config.PersistIntervalSeconds > 0)
    PersistThread = std::thread([this] { persistLoop(); });
  return true;
}

void CompileServer::stop() {
  // Late callers (e.g. a destructor racing an explicit stop()) block
  // here until the in-progress teardown completes, then no-op.
  std::lock_guard<std::mutex> StopLock(StopMu);
  if (!Running.exchange(false))
    return;
  Stopping.store(true);

  // 1. Stop intake: wake the blocked accept() and join the accept loop.
  //    (shutdown() on a listening socket waking accept() is a Linux
  //    behavior — the platform this repo builds and tests on.) The
  //    socket path is unlinked immediately, while the name still
  //    belongs to this daemon: deferring it past the (potentially long)
  //    connection drain would race a replacement daemon that correctly
  //    judged the silent socket stale and bound its own at this path.
  ::shutdown(ListenFd, SHUT_RDWR);
  if (TcpListenFd >= 0)
    ::shutdown(TcpListenFd, SHUT_RDWR);
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (TcpAcceptThread.joinable())
    TcpAcceptThread.join();
  ::close(ListenFd);
  ListenFd = -1;
  if (TcpListenFd >= 0) {
    ::close(TcpListenFd);
    TcpListenFd = -1;
    BoundTcpPort = 0;
  }
  ::unlink(Config.SocketPath.c_str());

  // 2. Unblock idle connections (threads parked in poll() see EOF) and
  //    wake every connection thread: one waiting for its client to make
  //    room for a frame abandons the write instead of waiting out the
  //    send timeout, while a reply the socket has room for is still
  //    delivered. Connection fds stay open until their threads are
  //    joined (only the reaper above and this function ever destroy a
  //    Connection — and the reaper cannot run concurrently with this,
  //    the accept loop is already joined), so shutdown() and the wake
  //    can never hit a recycled descriptor.
  std::vector<std::unique_ptr<Connection>> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (const auto &Conn : Connections)
      if (!Conn->Done.load()) {
        ::shutdown(Conn->Fd, SHUT_RD);
        eventfd_write(Conn->WakeFd, 1);
      }
    ToJoin.swap(Connections);
  }
  for (const auto &Conn : ToJoin)
    if (Conn->Thread.joinable())
      Conn->Thread.join();
  ToJoin.clear();

  // 3. Drain async jobs still in the session pool (prefetches etc.).
  Session->quiesce();

  // With no compiles left running, unhook the session from the fleet and
  // retire the peer links. Hook removal must precede PeerMgr teardown:
  // the session may outlive this server (tests share sessions), and a
  // dangling fetcher would call into freed memory on its next cold miss.
  if (PeerMgr) {
    Session->setColdMissFetcher(nullptr);
    Session->setCompileObserver(nullptr);
    PeerMgr->stop();
    PeerMgr.reset();
  }

  // Every thread that could hold a span on the recorder is joined or
  // quiesced; flush the requested trace dump before the recorder dies.
  if (Trace) {
    if (!Config.TraceOutFile.empty()) {
      std::string Dump = chromeTraceJson(Trace->snapshot()).dump();
      FILE *Out = std::fopen(Config.TraceOutFile.c_str(), "w");
      if (!Out || std::fwrite(Dump.data(), 1, Dump.size(), Out) != Dump.size())
        std::fprintf(stderr,
                     "unit CompileServer: trace dump to %s failed\n",
                     Config.TraceOutFile.c_str());
      if (Out)
        std::fclose(Out);
    }
    Trace.reset();
  }

  // 4. Stop the persist thread, then take the final consistent save. A
  //    failed shutdown save means a cold restart the operator expects to
  //    be warm — say so.
  requestShutdown();
  if (PersistThread.joinable())
    PersistThread.join();
  if (!Config.CacheFile.empty()) {
    std::lock_guard<std::mutex> Lock(SaveMu);
    if (!Session->saveCache(Config.CacheFile))
      std::fprintf(stderr,
                   "unit CompileServer: final cache save to %s failed; "
                   "the next start will be cold\n",
                   Config.CacheFile.c_str());
  }

  // 5. Only now release the path claim (the .lock file itself stays —
  //    unlinking it would reopen the takeover race for a waiter already
  //    holding an open fd to it). Held through the final save so a
  //    replacement daemon cannot sweep our in-flight save temp or load
  //    the cache file before the last snapshot lands; a successor
  //    start()ing earlier fails fast with "another server owns" and its
  //    supervisor retries.
  if (LockFd >= 0) {
    ::close(LockFd);
    LockFd = -1;
  }
}

void CompileServer::requestShutdown() {
  {
    std::lock_guard<std::mutex> Lock(ShutdownMu);
    ShutdownRequested = true;
  }
  ShutdownCv.notify_all();
}

void CompileServer::waitForShutdownRequest(
    const volatile std::sig_atomic_t *InterruptFlag) {
  std::unique_lock<std::mutex> Lock(ShutdownMu);
  while (!ShutdownRequested && !Stopping.load() &&
         !(InterruptFlag && *InterruptFlag))
    ShutdownCv.wait_for(Lock, std::chrono::milliseconds(100));
}

CompileServer::Totals CompileServer::totals() const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  return Lifetime;
}

//===----------------------------------------------------------------------===//
// Accept / connection loops
//===----------------------------------------------------------------------===//

void CompileServer::acceptLoop(int ListenerFd, bool RequireAuth) {
  while (!Stopping.load()) {
    int Fd = ::accept(ListenerFd, nullptr, nullptr);
    if (Fd < 0) {
      if (Stopping.load())
        break; // stop() shut the listener down.
      // Transient errors must not end the loop: the listener would stay
      // open (so replacement daemons refuse to start) while nobody
      // serves the backlog. ECONNABORTED = client gone mid-handshake;
      // EMFILE/ENFILE = fd exhaustion, back off and let connections
      // close before retrying.
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Reap before retrying: waiting for the next *successful*
        // accept to reap would deadlock — it is exactly the finished
        // connections' still-open fds keeping accept() at EMFILE.
        reapFinishedConnections();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      // Genuinely broken listener: a daemon that silently stops
      // accepting while Running would hang its owner's
      // waitForShutdownRequest() forever, reachable by nobody. Make the
      // failure loud and self-terminating.
      std::fprintf(stderr,
                   "unit CompileServer: accept() failed (%s); requesting "
                   "shutdown\n",
                   std::strerror(errno));
      requestShutdown();
      break;
    }
    // Bound writes: only the connection thread writes this socket, so a
    // client that stops reading stalls that thread alone — completion
    // threads just queue into its outbox. The timeout bounds even that
    // for the blocking handshake writes; outbox flushes poll under the
    // same bound and also end at once when stop() wakes them.
    timeval SendTimeout;
    SendTimeout.tv_sec = SendTimeoutSeconds;
    SendTimeout.tv_usec = 0;
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                 sizeof(SendTimeout));
    // Reap finished connections so a long-lived daemon doesn't
    // accumulate joined-out threads (or their fds).
    reapFinishedConnections();
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      if (Connections.size() >= MaxConnections) {
        ::close(Fd);
        continue;
      }
    }
    auto Conn = std::make_unique<Connection>();
    Conn->Fd = Fd;
    Conn->Frames.reset(Fd);
    Conn->WakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (Conn->WakeFd < 0)
      continue; // Out of fds: ~Connection closes Fd, the client sees EOF.
    Conn->NeedsAuth = RequireAuth;
    Conn->ClientName = "(anonymous)";
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Lifetime.Connections;
    }
    Connection *Raw = Conn.get();
    Raw->Thread = std::thread([this, Raw] { serveConnection(*Raw); });
    std::lock_guard<std::mutex> Lock(ConnMu);
    Connections.push_back(std::move(Conn));
  }
}

void CompileServer::reapFinishedConnections() {
  std::lock_guard<std::mutex> Lock(ConnMu);
  for (auto It = Connections.begin(); It != Connections.end();) {
    if ((*It)->Done.load()) {
      if ((*It)->Thread.joinable())
        (*It)->Thread.join();
      It = Connections.erase(It);
    } else {
      ++It;
    }
  }
}

CompileServer::Connection::~Connection() {
  ::close(Fd);
  if (WakeFd >= 0)
    ::close(WakeFd);
}

void CompileServer::serveConnection(Connection &Conn) {
  // TCP connections earn their first request frame: challenge, proof,
  // auth_ok — or an error frame and EOF. The secret itself never crosses
  // the wire (fabric/Handshake.h).
  Conn.Authed =
      !Conn.NeedsAuth || runAuthChallenge(Conn.Frames, Config.Secret);
  if (!Conn.Authed)
    AuthFailures.fetch_add(1);
  // One loop serves and then drains. While Reading, it waits on the
  // socket and the wake fd; afterwards (EOF, shutdown, a dead peer, or
  // stop()) only on the wake fd, until every completion callback — each
  // holds a reference to this Connection — has fired and its frame is
  // flushed (or, with the peer gone, discarded). So a pipelined client
  // never hangs on a vanished ticket, and the Connection outlives its
  // last callback.
  std::string Payload;
  bool Reading = Conn.Authed;
  for (;;) {
    Reading = Reading && !Stopping.load();
    // A connection that stops reading in mid-burst (a framing violation
    // after a good request, say) still owes that burst's queued replies,
    // and no completion thread will wake it for them.
    if (!Reading)
      flushOutbox(Conn);
    bool Idle;
    {
      std::lock_guard<std::mutex> Lock(Conn.TicketMu);
      Idle = Conn.UnresolvedJobs == 0 && Conn.Outbox.empty();
    }
    if (!Reading && Idle)
      break;
    // The rest of a pipelined burst is served from the reader's buffer
    // with no syscall. With no job pending, only this thread can queue a
    // frame, so an idle connection skips poll() and waits in read()
    // alone: the blocking request/response path costs no extra syscall.
    // An interrupted poll() leaves every revents zero and just loops.
    bool Buffered = Reading && Conn.Frames.ready();
    pollfd Fds[2] = {
        {Conn.WakeFd, POLLIN, 0},
        {Conn.Fd, POLLIN,
         static_cast<short>(Idle || Buffered ? POLLIN : 0)}};
    if (!Idle && !Buffered)
      ::poll(Fds, Reading ? 2 : 1, -1);
    if (Fds[0].revents & POLLIN) {
      eventfd_t Signals;
      eventfd_read(Conn.WakeFd, &Signals);
      Reading = flushOutbox(Conn) && Reading;
    }
    if (!Reading || Fds[1].revents == 0)
      continue;
    Reading = Conn.Frames.next(Payload) == FrameStatus::Ok;
    if (!Reading)
      continue;
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Lifetime.Requests;
    }
    // Root span of the request tree: opened before dispatch so every
    // handler span (admission, cache_resolve, ...) parents under it, and
    // scoped to the iteration so a flush after it is covered too.
    double FrameT0 = steadyNowSeconds();
    obs::Span ReqSpan("request", Trace.get());
    bool CloseAfter = false;
    Json Response;
    std::string ParseErr;
    std::optional<Json> Request = Json::parse(Payload, &ParseErr);
    if (Request) {
      ReqSpan.annotate("type", Request->str("type").c_str());
      // Exception barrier: compile handlers answer their own failures
      // (finishCompile), but anything else that throws (bad_alloc under
      // memory pressure, say) must become one error response, never
      // std::terminate for the whole shared daemon.
      try {
        Response = handleRequest(Conn, *Request, CloseAfter);
      } catch (...) {
        Response =
            errorResponse(*Request, failureMessage(std::current_exception()));
      }
    } else {
      Response = errorResponse(Json(), "malformed JSON: " + ParseErr);
    }
    if (!Response.isNull())
      queueReply(Conn, Response);
    // One write per burst: the replies of every buffered request leave
    // together after the last one (at once for a request that closes,
    // and whenever a chunk's worth is queued, so a client that pipelines
    // without reading holds at most a chunk plus one reply of memory).
    bool Flush = CloseAfter || !Conn.Frames.ready();
    if (!Flush) {
      std::lock_guard<std::mutex> Lock(Conn.TicketMu);
      Flush = Conn.Outbox.size() >= FrameReader::ChunkBytes;
    }
    if (Flush)
      Reading = flushOutbox(Conn) && !CloseAfter;
    // Read to reply written for the last request of a burst (a lone
    // blocking request is its own burst); read to reply queued for the
    // others.
    FrameLatencyHist.record(steadyNowSeconds() - FrameT0);
  }
  // Tell the peer we are done *now* (EOF on its next read): the fd is
  // close()d only by whoever joins this thread (the accept loop's
  // reaper or stop() — closing here would race stop()'s shutdown() on a
  // recycled descriptor number), and that join can be arbitrarily far
  // away on an idle daemon. A double shutdown() from a racing stop() is
  // harmless.
  ::shutdown(Conn.Fd, SHUT_RDWR);
  Conn.Done.store(true);
}

void CompileServer::queueReply(Connection &Conn, const Json &Reply) {
  std::string Dump = Reply.dump();
  if (Dump.size() > MaxFrameBytes) {
    // A silently dropped connection reads as a crashed daemon; tell the
    // client its request produced an unshippable response instead.
    // Built minimal on purpose: echoing the request id here could make
    // the fallback itself oversize (ids are arbitrary client JSON).
    if (Reply.str("type") != "error") {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Lifetime.Errors;
    }
    Json TooBig = Json::object();
    TooBig.set("type", "error");
    TooBig.set("message", "response exceeds the frame limit; request "
                          "less at once (split the model, or drop "
                          "'detail')");
    Dump = TooBig.dump();
  }
  std::lock_guard<std::mutex> Lock(Conn.TicketMu);
  appendFrame(Conn.Outbox, Dump);
}

bool CompileServer::flushOutbox(Connection &Conn) {
  std::string Bytes;
  for (;;) {
    size_t Notifications;
    {
      std::lock_guard<std::mutex> Lock(Conn.TicketMu);
      if (Conn.Outbox.empty())
        return true;
      Bytes.swap(Conn.Outbox);
      Notifications = std::exchange(Conn.QueuedNotifications, 0);
    }
    // Written outside the lock: completion threads keep queueing while a
    // slow reader holds this write. A batch that carries result
    // notifications is a notification_write span, whichever flush sends
    // it: a child of the request on a reply's flush, a root on a wake's.
    std::optional<obs::Span> Write;
    if (Notifications > 0)
      Write.emplace("notification_write", Trace.get());
    if (!sendOutbox(Conn, Bytes)) {
      // A failed write may have left half a frame on the wire; nothing
      // sent after it could be parsed, so end the stream.
      ::shutdown(Conn.Fd, SHUT_RDWR);
      return false;
    }
    Bytes.clear();
  }
}

bool CompileServer::sendOutbox(Connection &Conn, const std::string &Bytes) {
  double Deadline = 0; // Set when the socket fills, cleared on progress.
  for (size_t Sent = 0; Sent < Bytes.size();) {
    // MSG_NOSIGNAL: a vanished peer is an error return, not SIGPIPE.
    ssize_t N = ::send(Conn.Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
    if (N > 0) {
      Sent += static_cast<size_t>(N);
      Deadline = 0;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
      return false;
    // The socket is full. Wait for room or a wake: a completion queueing
    // a frame (the flush loop picks it up after this batch) or stop().
    if (Deadline == 0)
      Deadline = steadyNowSeconds() + SendTimeoutSeconds;
    pollfd Fds[2] = {{Conn.Fd, POLLOUT, 0}, {Conn.WakeFd, POLLIN, 0}};
    do {
      double Left = Deadline - steadyNowSeconds();
      if (Stopping.load() || Left <= 0)
        return false;
      if (::poll(Fds, 2, static_cast<int>(Left * 1000) + 1) > 0 &&
          (Fds[1].revents & POLLIN)) {
        eventfd_t Signals;
        eventfd_read(Conn.WakeFd, &Signals);
      }
    } while (Fds[0].revents == 0);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

Json CompileServer::errorResponse(const Json &Request,
                                  const std::string &Message) {
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Lifetime.Errors;
  }
  return errorFrame(Request, Message);
}

Json CompileServer::handleRequest(Connection &Conn, const Json &Request,
                                  bool &CloseAfter) {
  const std::string Type = Request.str("type");
  if (Type == "hello")
    return handleHello(Conn, Request);
  if (Type == "compile")
    return handleCompile(Conn, Request);
  if (Type == "compile_async")
    return handleCompileAsync(Conn, Request);
  if (Type == "compile_model")
    return handleCompileModel(Conn, Request);
  if (Type == "list_targets")
    return handleListTargets(Request);
  if (Type == "register_target")
    return handleRegisterTarget(Conn, Request);
  if (Type == "stats")
    return handleStats(Request);
  if (Type == "metrics")
    return handleMetrics(Request);
  if (Type == "dump_trace")
    return handleDumpTrace(Request);
  if (Type == "save_cache")
    return handleSaveCache(Request);
  if (Type == "fetch_cache")
    return handleFetchCache(Request);
  if (Type == "push_cache")
    return handlePushCache(Request);
  if (Type == "shutdown") {
    CloseAfter = true;
    requestShutdown();
    Json J = Json::object();
    J.set("type", "bye");
    if (const Json *Id = Request.get("id"))
      J.set("id", *Id);
    return J;
  }
  return errorResponse(Request, "unknown request type '" + Type + "'");
}

Json CompileServer::handleHello(Connection &Conn, const Json &Request) {
  std::string Name = Request.str("client");
  if (!Name.empty())
    Conn.ClientName = Name;
  // A cap outside int range is no cap, never a wrapped one.
  int64_t Requested = Request.integer("max_candidates", 0);
  int Cap = Requested > 0 && Requested <= INT_MAX ? static_cast<int>(Requested)
                                                  : 0;
  bool BudgetRejected = false;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    // A budget stored in the shared overflow bucket would be silently
    // ignored (effectiveBudget looks up the real name) — fail loudly
    // instead of quietly dropping the client's admission contract.
    // (errorResponse takes StatsMu itself, so only flag it here.)
    bool WouldFold = Clients.find(Conn.ClientName) == Clients.end() &&
                     Clients.size() >= MaxClientBuckets;
    if (Cap > 0 && WouldFold) {
      BudgetRejected = true;
    } else {
      ClientStats &C = clientSlotLocked(Conn.ClientName);
      // Every hello (re)sets the cap: omitting the budget clears any
      // previously registered one, so a reconnecting client is never
      // silently stuck with a stale clamp under its name.
      C.MaxCandidatesCap = Cap > 0 ? Cap : 0;
      ++C.Requests;
    }
  }
  if (BudgetRejected)
    return errorResponse(Request,
                         "too many distinct client names to register a "
                         "per-client budget; reuse an existing name");
  Json J = Json::object();
  J.set("type", "welcome");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("server", "unit_serve");
  J.set("protocol", ProtocolVersion);
  // Capability flag, not a version bump: the streaming message family is
  // an addition, and additions are advertised, not versioned.
  J.set("streaming", true);
  // Same shape for the observability family: `metrics` and `dump_trace`
  // are additive messages, advertised rather than versioned.
  J.set("metrics", true);
  // Advertise the per-connection ticket budget so clients size their
  // pipelines from the wire instead of hardcoding the server's constant.
  J.set("max_pending_tickets",
        static_cast<int64_t>(MaxPendingTicketsPerConnection));
  J.set("fingerprint", CompilerSession::persistenceFingerprint());
  if (Config.MaxCandidatesCap > 0)
    J.set("server_max_candidates", Config.MaxCandidatesCap);
  return J;
}

CompileServer::ClientStats &
CompileServer::clientSlotLocked(const std::string &ClientName) {
  auto It = Clients.find(ClientName);
  if (It != Clients.end())
    return It->second;
  if (Clients.size() >= MaxClientBuckets)
    return Clients["(overflow)"];
  return Clients[ClientName];
}

int CompileServer::effectiveBudget(const std::string &ClientName,
                                   int Requested) const {
  int Effective = Requested;
  auto Tighten = [&Effective](int Cap) {
    if (Cap > 0 && (Effective <= 0 || Effective > Cap))
      Effective = Cap;
  };
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    auto It = Clients.find(ClientName);
    if (It != Clients.end())
      Tighten(It->second.MaxCandidatesCap);
  }
  Tighten(Config.MaxCandidatesCap);
  return Effective;
}

std::string CompileServer::finishCompile(Connection &Conn, double SubmitSeconds,
                                        uint64_t Ticket,
                                        const KernelReport *Report,
                                        uint64_t Layers, uint64_t FromCache,
                                        uint64_t Fresh,
                                        std::exception_ptr Error) {
  double Seconds = steadyNowSeconds() - SubmitSeconds;
  // Dirty-flag for the persist thread: fresh kernels changed the cache.
  // A failure ticks too: a failed compile_model may have cached the
  // layers before the failing one, and a spurious tick costs one
  // redundant save at most.
  if (Fresh > 0 || Error)
    CompilesSinceSave.fetch_add(1);
  // Single-kernel requests pass their report; compile_model passes none.
  const char *Kind = Error    ? "error"
                     : Report ? (Fresh > 0 ? "cold" : "warm")
                              : (Fresh > 0 ? "model" : "model-warm");
  logSlowCompile(Config.SlowCompileMillis, Seconds, Conn.ClientName, Ticket,
                 Kind, Report);
  std::lock_guard<std::mutex> Lock(StatsMu);
  if (Error)
    ++Lifetime.Errors;
  ClientStats &C = clientSlotLocked(Conn.ClientName);
  ++C.Requests;
  ++C.CompileRequests;
  C.LayersRequested += Layers;
  C.LayersFromCache += FromCache;
  Lifetime.CompiledKernels += Fresh;
  C.TotalSeconds += Seconds;
  C.MaxSeconds = std::max(C.MaxSeconds, Seconds);
  return Error ? failureMessage(Error) : std::string();
}

bool CompileServer::parseCompileRequest(Connection &Conn, const Json &Request,
                                        std::optional<CompileRequest> &Out,
                                        Json &ErrorReply) {
  // Targets resolve through the registry, not a protocol-level name
  // table: a backend registered at runtime is immediately addressable.
  const std::string TargetId = Request.str("target", "x86");
  TargetBackendRef Target = TargetRegistry::instance().lookup(TargetId);
  auto Fail = [&](const std::string &Message) {
    ErrorReply = errorResponse(Request, Message);
    return false;
  };
  if (!Target)
    return Fail("unknown target '" + TargetId + "'");
  const Json *WorkloadJson = Request.get("workload");
  if (!WorkloadJson || !WorkloadJson->isObject())
    return Fail("missing 'workload' object");

  CompileOptions Options = optionsFromJson(Request.get("options"));
  Options.MaxCandidates =
      effectiveBudget(Conn.ClientName, Options.MaxCandidates);

  std::string WireErr;
  std::optional<Workload> Work;
  const std::string Kind = WorkloadJson->str("kind", "conv2d");
  if (Kind == "conv2d") {
    ConvLayer L;
    if (!convLayerFromJson(*WorkloadJson, L, WireErr))
      return Fail(WireErr);
    Work = Workload::conv2d(std::move(L));
  } else if (Kind == "dense") {
    int64_t In = 0, OutDim = 0;
    if (!readIntField(*WorkloadJson, "in", 0, In, WireErr) ||
        !readIntField(*WorkloadJson, "out", 0, OutDim, WireErr))
      return Fail(WireErr);
    if (In <= 0 || OutDim <= 0 || In > MaxWorkloadDim ||
        OutDim > MaxWorkloadDim)
      return Fail("dense requires positive 'in' and 'out' within the "
                  "supported maximum");
    Work = Workload::dense(WorkloadJson->str("name", "dense"), In, OutDim);
  } else if (Kind == "conv3d") {
    // Routing conv3d to a backend without the hook would fatal-error the
    // daemon, so gate on the backend's declared capability — new
    // registered backends are picked up without touching the server.
    if (!Target->supportsConv3d())
      return Fail("conv3d is not supported on " + TargetId);
    Conv3dLayer L;
    if (!conv3dLayerFromJson(*WorkloadJson, L, WireErr))
      return Fail(WireErr);
    Work = Workload::conv3d(std::move(L));
  } else {
    return Fail("unknown workload kind '" + Kind + "'");
  }
  Out.emplace(std::move(*Work), std::move(Target), Options);
  return true;
}

Json CompileServer::handleCompile(Connection &Conn, const Json &Request) {
  std::optional<CompileRequest> Compile;
  Json ErrorReply;
  if (!parseCompileRequest(Conn, Request, Compile, ErrorReply))
    return ErrorReply;

  // "Cached" means this request triggered no fresh compile: served by a
  // ready entry or a single-flight join of a concurrent client's
  // compile. The signal comes from the compile call itself (race-free,
  // unlike probing the cache first) — so racing clients on one cold key
  // account exactly one compiled layer between them.
  double T0 = steadyNowSeconds();
  bool Computed = false;
  KernelReport Report;
  std::exception_ptr Error;
  try {
    Report = Session->compile(*Compile, &Computed);
  } catch (...) {
    Error = std::current_exception();
  }
  std::string Failure =
      finishCompile(Conn, T0, /*Ticket=*/0, Error ? nullptr : &Report,
                    /*Layers=*/1, /*FromCache=*/!Error && !Computed, Computed,
                    Error);
  if (Error)
    return errorFrame(Request, Failure);

  Json J = Json::object();
  J.set("type", "result");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("cached", !Computed);
  J.set("report", toJson(Report));
  return J;
}

Json CompileServer::handleCompileAsync(Connection &Conn, const Json &Request) {
  // Parse + ticket issue + session submit; the dispatch's cache_resolve
  // span parents here, and the pool-side compile span links back through
  // the context the session captures at submit.
  obs::Span Adm("admission");
  std::optional<CompileRequest> Compile;
  Json ErrorReply;
  if (!parseCompileRequest(Conn, Request, Compile, ErrorReply))
    return ErrorReply;

  uint64_t Ticket = 0;
  {
    std::lock_guard<std::mutex> Lock(Conn.TicketMu);
    if (Conn.UnresolvedJobs < MaxPendingTicketsPerConnection) {
      Ticket = Conn.NextTicket++;
      ++Conn.UnresolvedJobs;
    }
  }
  if (Ticket == 0)
    return errorResponse(Request,
                         "too many pending tickets on this connection (max " +
                             std::to_string(MaxPendingTicketsPerConnection) +
                             "); wait for results");
  TicketsIssued.fetch_add(1);
  Adm.annotate("ticket", Ticket);

  // Queued before the job starts: the outbox is FIFO, so this ticket's
  // result — even a warm hit, whose callback fires inline below — always
  // reaches the wire after the submitted reply that names it.
  Json J = Json::object();
  J.set("type", "submitted");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("ticket", Ticket);
  queueReply(Conn, J);

  double T0 = steadyNowSeconds();
  Session->compileAsyncThen(
      std::move(*Compile),
      [this, &Conn, Ticket, T0](const KernelReport *Report,
                                std::exception_ptr Error, bool Computed) {
        finishTicket(Conn, Ticket, T0, Report, Error, Computed);
      });
  return Json(); // Already queued.
}

void CompileServer::finishTicket(Connection &Conn, uint64_t Ticket,
                                 double SubmitSeconds,
                                 const KernelReport *Report,
                                 std::exception_ptr Error, bool Computed) {
  std::string Failure = finishCompile(Conn, SubmitSeconds, Ticket, Report,
                                      /*Layers=*/1,
                                      /*FromCache=*/Report && !Computed,
                                      Computed, Error);
  std::string Payload =
      Report ? makeResultNotification(Ticket, /*Cached=*/!Computed, *Report)
                   .dump()
             : makeErrorNotification(Ticket, Failure).dump();

  std::lock_guard<std::mutex> Lock(Conn.TicketMu);
  bool WasEmpty = Conn.Outbox.empty();
  // Counted when queued, under the lock the flush takes: a client holding
  // the pushed result never reads a stats snapshot that has not counted
  // it yet. (A frame the peer never reads still counts.)
  NotificationsDelivered.fetch_add(1);
  appendFrame(Conn.Outbox, Payload);
  ++Conn.QueuedNotifications;
  // Wake for the first frame of a batch, and for the last job (the drain
  // waits for it). Still under TicketMu: the moment the drain can see
  // zero it may retire the Connection and close the wake fd, whose
  // number may then be reused, so an unlocked write could signal a
  // stranger.
  if (--Conn.UnresolvedJobs == 0 || (WasEmpty && !Conn.Outbox.empty()))
    eventfd_write(Conn.WakeFd, 1);
}

Json CompileServer::handleCompileModel(Connection &Conn, const Json &Request) {
  const std::string TargetId = Request.str("target", "x86");
  TargetBackendRef Target = TargetRegistry::instance().lookup(TargetId);
  if (!Target)
    return errorResponse(Request, "unknown target '" + TargetId + "'");
  const Json *ModelJson = Request.get("model");
  if (!ModelJson)
    return errorResponse(Request, "missing 'model' object");
  Model M;
  std::string WireErr;
  if (!modelFromJson(*ModelJson, M, WireErr))
    return errorResponse(Request, WireErr);

  CompileOptions Options = optionsFromJson(Request.get("options"));
  Options.MaxCandidates =
      effectiveBudget(Conn.ClientName, Options.MaxCandidates);

  double T0 = steadyNowSeconds();
  ModelCompileResult Result;
  std::exception_ptr Error;
  try {
    Result = Session->compileModel(M, *Target, Options);
  } catch (...) {
    Error = std::current_exception();
  }
  // FreshCompiles is race-free (from the compiles themselves), unlike
  // the probed hit count.
  std::string Failure = finishCompile(
      Conn, T0, /*Ticket=*/0, /*Report=*/nullptr, M.Convs.size(),
      Result.CacheHitLayers, Result.FreshCompiles, Error);
  if (Error)
    return errorFrame(Request, Failure);

  Json Layers = Json::array();
  for (const KernelReport &R : Result.Layers)
    Layers.push(toJson(R));
  Json J = Json::object();
  J.set("type", "model_result");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("model", M.Name);
  J.set("layers", std::move(Layers));
  J.set("distinct_shapes", Result.DistinctShapes);
  J.set("cache_hit_layers", Result.CacheHitLayers);
  J.set("wall_seconds", Result.WallSeconds);
  return J;
}

Json CompileServer::handleListTargets(const Json &Request) {
  // The registry snapshot *is* the response: backends registered after
  // the daemon started (in-process hosts can do that) appear here with
  // no server change, which is how test_extensibility proves the
  // spec-only integration story over the wire.
  Json Targets = Json::array();
  for (const TargetBackendRef &B : TargetRegistry::instance().all()) {
    Json T = Json::object();
    T.set("id", B->id());
    T.set("description", B->description());
    T.set("conv3d", B->supportsConv3d());
    T.set("spec_hash", B->specHash());
    T.set("source", specSourceName(
                        TargetRegistry::instance().specSourceFor(B->id())));
    Json Intrs = Json::array();
    for (const TensorIntrinsicRef &I : B->intrinsics())
      Intrs.push(I->name());
    T.set("intrinsics", std::move(Intrs));
    Targets.push(std::move(T));
  }
  Json J = Json::object();
  J.set("type", "targets");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("targets", std::move(Targets));
  return J;
}

Json CompileServer::handleRegisterTarget(Connection &Conn,
                                         const Json &Request) {
  // Registering a backend changes what every subsequent compile on this
  // daemon can do — operator action, not client traffic. TCP callers
  // proved the shared secret before their first frame reached dispatch;
  // this re-check makes a future dispatch-path mistake fail closed
  // instead of open.
  if (Conn.NeedsAuth && !Conn.Authed)
    return errorResponse(Request,
                         "register_target requires an authenticated "
                         "connection");
  const Json *SpecDoc = Request.get("spec");
  if (!SpecDoc || !SpecDoc->isObject())
    return errorResponse(Request,
                         "register_target needs a 'spec' object (the "
                         "target-spec JSON document, docs/BACKENDS.md)");
  if (SpecDoc->dump().size() > MaxSpecFileBytes)
    return errorResponse(Request,
                         "register_target spec exceeds the " +
                             std::to_string(MaxSpecFileBytes) +
                             "-byte spec-document limit");
  TargetSpec Spec;
  std::string Err;
  // parseSpec validates everything TargetSpec::validate() would abort
  // on, so wire input can never reach the fatal path; a rejected spec
  // leaves the registry untouched.
  if (!parseSpec(*SpecDoc, Spec, &Err))
    return errorResponse(Request, Err);
  TargetBackendRef Backend =
      TargetRegistry::instance().registerSpec(std::move(Spec),
                                              SpecSource::Wire);
  Json J = Json::object();
  J.set("type", "target_registered");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("target", Backend->id());
  J.set("spec_hash", Backend->specHash());
  J.set("source", specSourceName(SpecSource::Wire));
  return J;
}

Json CompileServer::handleStats(const Json &Request) {
  KernelCache::CacheStats CS = Session->cache().stats();
  Json Cache = Json::object();
  Cache.set("entries", CS.Entries);
  Cache.set("bytes", CS.BytesUsed);
  Cache.set("capacity", Session->cache().capacity());
  Cache.set("hits", CS.Hits);
  Cache.set("misses", CS.Misses);
  Cache.set("evictions", CS.Evictions);

  Json ClientsJson = Json::array();
  Totals Snapshot;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    Snapshot = Lifetime;
    for (const auto &KV : Clients) {
      const ClientStats &C = KV.second;
      Json CJ = Json::object();
      CJ.set("client", KV.first);
      CJ.set("requests", C.Requests);
      CJ.set("compile_requests", C.CompileRequests);
      CJ.set("layers_requested", C.LayersRequested);
      CJ.set("layers_from_cache", C.LayersFromCache);
      if (C.MaxCandidatesCap > 0)
        CJ.set("max_candidates", C.MaxCandidatesCap);
      CJ.set("total_seconds", C.TotalSeconds);
      CJ.set("max_seconds", C.MaxSeconds);
      if (C.CompileRequests > 0)
        CJ.set("mean_seconds", C.TotalSeconds / C.CompileRequests);
      ClientsJson.push(std::move(CJ));
    }
  }

  Json J = Json::object();
  J.set("type", "stats_result");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("uptime_seconds", steadyNowSeconds() - StartSeconds);
  J.set("build", obs::buildString());
  J.set("pid", static_cast<int64_t>(::getpid()));
  J.set("connections", Snapshot.Connections);
  J.set("requests", Snapshot.Requests);
  J.set("compiled_kernels", Snapshot.CompiledKernels);
  J.set("errors", Snapshot.Errors);
  J.set("tuner_invocations", tunerInvocations());
  J.set("inflight_jobs", Session->inFlightJobs());
  SessionStats SS = Session->sessionStats();
  // Tuner economics (docs/TUNING.md). The process-wide counters sit next
  // to the session's transfer_seeds so one stats probe answers "is the
  // search actually being cut": pruned_candidates > 0 proves early exit
  // is biting, transfer_seeds > 0 proves warm starts are flowing, and
  // refit_active distinguishes measured machine constants from factory
  // ones. tuner_invocations stays top-level for older dashboards.
  Json Tuner = Json::object();
  Tuner.set("invocations", tunerInvocations());
  Tuner.set("candidates_scored", tunerCandidatesScored());
  Tuner.set("pruned_candidates", tunerPrunedCandidates());
  Tuner.set("transfer_seeds", SS.TransferSeeds);
  Tuner.set("refit_active", machineOverlayActive());
  J.set("tuner", std::move(Tuner));
  Json SessionJson = Json::object();
  SessionJson.set("continuation_joins", SS.ContinuationJoins);
  SessionJson.set("inline_ready_hits", SS.InlineReadyHits);
  SessionJson.set("fresh_dispatches", SS.FreshDispatches);
  J.set("session", std::move(SessionJson));
  // Snapshot order is the consistency guarantee: delivered is
  // acquire-read *before* issued. It only ever grows after an issue, so
  // any interleaving yields delivered <= issued — a monitoring client
  // can never observe a notification for a ticket the same snapshot has
  // not issued yet.
  uint64_t Delivered = NotificationsDelivered.load(std::memory_order_acquire);
  uint64_t Issued = TicketsIssued.load(std::memory_order_acquire);
  Json Streaming = Json::object();
  Streaming.set("tickets_issued", Issued);
  Streaming.set("notifications_delivered", Delivered);
  J.set("streaming", std::move(Streaming));
  // Fabric counters are always present (zeros on a Unix-only daemon) so
  // fleet dashboards need no schema probing.
  Json Fabric = Json::object();
  Fabric.set("tcp_listen", Config.TcpListen);
  Fabric.set("tcp_port", static_cast<int64_t>(BoundTcpPort));
  Fabric.set("auth_failures", AuthFailures.load());
  Fabric.set("peers_configured",
             static_cast<uint64_t>(Config.Peers.size()));
  PeerManager::Stats PS = PeerMgr ? PeerMgr->stats() : PeerManager::Stats{};
  Fabric.set("peers_connected", PS.PeersConnected);
  Fabric.set("entries_pushed", PS.EntriesPushed);
  Fabric.set("entries_fetched", PS.EntriesFetched);
  Fabric.set("fetch_hits", PS.FetchHits);
  Fabric.set("fetch_misses", PS.FetchMisses);
  Fabric.set("fetches_served", PeerFetchesServed.load());
  Fabric.set("pushes_served", PeerPushesServed.load());
  Fabric.set("entries_served", PeerEntriesServed.load());
  Fabric.set("entries_accepted", PeerEntriesAccepted.load());
  J.set("fabric", std::move(Fabric));
  J.set("cache", std::move(Cache));
  J.set("clients", std::move(ClientsJson));

  if (Request.boolean("detail", false)) {
    Json Entries = Json::array();
    for (const KernelCache::EntrySize &E :
         Session->cache().entrySizes(MaxShownKeyBytes)) {
      Json EJ = Json::object();
      EJ.set("key", E.Key);
      EJ.set("bytes", E.Bytes);
      EJ.set("ready", E.Ready);
      Entries.push(std::move(EJ));
    }
    J.set("entries", std::move(Entries));
  }
  return J;
}

Json CompileServer::handleSaveCache(const Json &Request) {
  // Wire input is untrusted: an arbitrary client-supplied path would let
  // any connection rename-replace any file the daemon user can write.
  // Saves go to the operator-configured cache file, full stop; a 'path'
  // is accepted only when it matches it.
  std::string Path = Request.str("path", Config.CacheFile);
  if (Config.CacheFile.empty())
    return errorResponse(Request, "the server has no configured cache file");
  if (Path != Config.CacheFile)
    return errorResponse(Request, "save_cache only writes the server's "
                                  "configured cache file");
  // The dirty snapshot is taken under SaveMu so racing savers cannot
  // both subtract the same ticks (an underflow would disable the
  // persist thread's idle short-circuit forever); ticks from compiles
  // finishing during the save still survive it.
  std::optional<size_t> Saved;
  {
    std::lock_guard<std::mutex> Lock(SaveMu);
    uint64_t Dirty = CompilesSinceSave.load();
    Saved = Session->saveCache(Path);
    if (Saved)
      CompilesSinceSave.fetch_sub(Dirty);
  }
  if (!Saved)
    return errorResponse(Request, "could not write '" + Path + "'");
  Json J = Json::object();
  J.set("type", "saved");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("path", Path);
  J.set("entries", *Saved);
  return J;
}

Json CompileServer::handleMetrics(const Json &Request) {
  // One frozen snapshot per family — each is internally consistent
  // (count equals the bucket sum) even while compiles are landing.
  CompilerSession::LatencySnapshots LS = Session->latencySnapshots();
  Json Hists = Json::object();
  Hists.set("unit_compile_cold_seconds", toJson(LS.Cold));
  Hists.set("unit_compile_warm_seconds", toJson(LS.Warm));
  Hists.set("unit_compile_join_seconds", toJson(LS.Join));
  Hists.set("unit_frame_seconds", toJson(FrameLatencyHist.snapshot()));
  Hists.set("unit_peer_fetch_seconds",
            toJson(PeerMgr ? PeerMgr->fetchRtt() : obs::HistogramSnapshot()));
  Hists.set("unit_tuner_candidate_seconds", toJson(tunerCandidateCost()));
  Json J = Json::object();
  J.set("type", "metrics");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("uptime_seconds", steadyNowSeconds() - StartSeconds);
  J.set("build", obs::buildString());
  J.set("histograms", std::move(Hists));
  return J;
}

Json CompileServer::handleDumpTrace(const Json &Request) {
  Json J = Json::object();
  J.set("type", "trace");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("enabled", Trace != nullptr);
  J.set("trace", chromeTraceJson(Trace ? Trace->snapshot()
                                       : std::vector<obs::TraceEvent>()));
  return J;
}

//===----------------------------------------------------------------------===//
// Peer cache exchange (the serving side of fabric/PeerManager.h)
//===----------------------------------------------------------------------===//

std::string CompileServer::peerFingerprint() const {
  return Config.PeerFingerprintOverride.empty()
             ? CompilerSession::persistenceFingerprint()
             : Config.PeerFingerprintOverride;
}

Json CompileServer::handleFetchCache(const Json &Request) {
  PeerFetchesServed.fetch_add(1);
  Json Entries = Json::array();
  size_t Count = 0;
  // Mismatched fingerprints exchange nothing — an empty reply, not an
  // error: reports are only valid between identical machine/tuner/format
  // configurations, and a mixed fleet should degrade to independent
  // daemons, not to a poisoned cache.
  if (Request.str("fingerprint") == peerFingerprint()) {
    std::vector<std::string> Keys;
    bool HasKeys = false;
    if (const Json *KeysJson = Request.get("keys")) {
      HasKeys = KeysJson->isArray();
      if (HasKeys)
        for (const Json &K : KeysJson->items())
          if (K.isString())
            Keys.push_back(K.asString());
    }
    // Targeted fetches (cold-miss probes) are never byte-capped — the
    // caller asked for specific keys; only bulk warm syncs are.
    std::vector<KernelCache::ExportedEntry> Exported =
        Session->cache().exportReady(HasKeys ? 0 : Config.MaxPeerExchangeBytes,
                                     HasKeys ? &Keys : nullptr);
    Count = Exported.size();
    for (const KernelCache::ExportedEntry &E : Exported) {
      Json EJ = Json::object();
      EJ.set("key", E.Key);
      EJ.set("report", toJson(E.Report));
      Entries.push(std::move(EJ));
    }
  }
  PeerEntriesServed.fetch_add(Count);
  Json J = Json::object();
  J.set("type", "cache_entries");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("fingerprint", peerFingerprint());
  J.set("entries", std::move(Entries));
  return J;
}

Json CompileServer::handlePushCache(const Json &Request) {
  PeerPushesServed.fetch_add(1);
  size_t Accepted = 0;
  if (Request.str("fingerprint") == peerFingerprint()) {
    std::vector<KernelCache::ExportedEntry> In;
    if (const Json *Entries = Request.get("entries"))
      if (Entries->isArray())
        for (const Json &E : Entries->items()) {
          KernelCache::ExportedEntry X;
          X.Key = E.str("key");
          const Json *ReportJson = E.get("report");
          std::string DecodeErr;
          if (X.Key.empty() || !ReportJson ||
              !kernelReportFromJson(*ReportJson, X.Report, DecodeErr))
            continue; // Malformed entries are skipped, not fatal.
          In.push_back(std::move(X));
        }
    Accepted = Session->cache().importReady(In);
    // Imported entries are cache content the persist thread has not
    // saved yet — they must survive a crash like locally tuned ones.
    if (Accepted > 0)
      CompilesSinceSave.fetch_add(1);
  }
  PeerEntriesAccepted.fetch_add(Accepted);
  Json J = Json::object();
  J.set("type", "cache_pushed");
  if (const Json *Id = Request.get("id"))
    J.set("id", *Id);
  J.set("accepted", Accepted);
  return J;
}

//===----------------------------------------------------------------------===//
// Periodic persistence
//===----------------------------------------------------------------------===//

void CompileServer::persistLoop() {
  std::unique_lock<std::mutex> Lock(ShutdownMu);
  auto Interval = std::chrono::duration<double>(Config.PersistIntervalSeconds);
  while (!ShutdownRequested && !Stopping.load()) {
    ShutdownCv.wait_for(Lock, Interval);
    if (ShutdownRequested || Stopping.load())
      break; // stop() takes the final save after joining this thread.
    if (CompilesSinceSave.load() == 0)
      continue;
    Lock.unlock();
    {
      // Snapshot under SaveMu (see handleSaveCache), and only a
      // successful save consumes the dirty count — a transient write
      // failure leaves it set, so the next interval retries instead of
      // silently dropping everything since the last good save.
      std::lock_guard<std::mutex> SaveLock(SaveMu);
      uint64_t Dirty = CompilesSinceSave.load();
      if (Dirty != 0 && Session->saveCache(Config.CacheFile))
        CompilesSinceSave.fetch_sub(Dirty);
    }
    Lock.lock();
  }
}
