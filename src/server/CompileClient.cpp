//===- server/CompileClient.cpp --------------------------------------------===//

#include "server/CompileClient.h"

#include "fabric/Endpoint.h"
#include "fabric/Handshake.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace unit;

namespace {

void setErr(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
}

std::exception_ptr failure(const std::string &Why) {
  return std::make_exception_ptr(std::runtime_error(Why));
}

/// The report and cached flag of a result frame: a blocking compile's
/// reply or a pushed notification.
bool decodeResult(const Json &Frame, CompileClient::CompileResult &R,
                  std::string &Err) {
  const Json *ReportJson = Frame.get("report");
  if (!ReportJson) {
    Err = "result missing 'report'";
    return false;
  }
  if (!kernelReportFromJson(*ReportJson, R.Report, Err))
    return false;
  R.Cached = Frame.boolean("cached", false);
  return true;
}

} // namespace

CompileClient::~CompileClient() { close(); }

bool CompileClient::connect(const std::string &SocketPath, std::string *Err) {
  return connect(std::vector<std::string>{SocketPath}, std::string(), Err);
}

bool CompileClient::connect(const std::vector<std::string> &Endpoints,
                            const std::string &Secret, std::string *Err) {
  close();
  if (Endpoints.empty()) {
    setErr(Err, "no endpoints to connect to");
    return false;
  }
  std::string FirstErr;
  int NewFd = -1;
  for (size_t I = 0; I < Endpoints.size() && NewFd < 0; ++I) {
    std::string DialErr;
    NewFd = dialEndpoint(Endpoints[I], Secret, &DialErr);
    if (NewFd < 0 && FirstErr.empty())
      FirstErr = DialErr;
  }
  if (NewFd < 0) {
    setErr(Err, FirstErr.empty() ? "connect failed" : FirstErr);
    return false;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  Fd = NewFd;
  Dead = false;
  DeadReason.clear();
  Replies.clear();
  Unclaimed.clear();
  Outstanding.clear();
  ArrivalCounter = 0;
  return true;
}

int CompileClient::dialEndpoint(const std::string &Ep,
                                const std::string &Secret, std::string *Err) {
  if (looksLikeUnixPath(Ep)) {
    sockaddr_un Addr;
    if (!makeUnixSocketAddr(Ep, Addr, Err))
      return -1;
    int NewFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (NewFd < 0) {
      setErr(Err, std::string("socket() failed: ") + std::strerror(errno));
      return -1;
    }
    if (::connect(NewFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      setErr(Err, "connect(" + Ep + ") failed: " + std::strerror(errno));
      ::close(NewFd);
      return -1;
    }
    Frames.reset(NewFd);
    return NewFd;
  }
  std::string DetailErr;
  std::optional<Endpoint> Parsed = parseEndpoint(Ep, &DetailErr);
  if (!Parsed) {
    setErr(Err, "bad endpoint '" + Ep + "': " + DetailErr);
    return -1;
  }
  int NewFd = dialTcp(*Parsed, &DetailErr);
  if (NewFd < 0) {
    setErr(Err, "connect(" + Ep + ") failed: " + DetailErr);
    return -1;
  }
  Frames.reset(NewFd);
  if (!answerAuthChallenge(Frames, Secret, &DetailErr)) {
    setErr(Err, "auth with " + Ep + " failed: " + DetailErr);
    ::close(NewFd);
    return -1;
  }
  return NewFd;
}

void CompileClient::close() {
  std::unique_lock<std::mutex> Lock(Mu);
  if (Fd < 0)
    return;
  // shutdown() (not close()) wakes a caller parked in read(); the fd
  // itself is released only once nobody reads, so no read can race a
  // recycled descriptor number.
  ::shutdown(Fd, SHUT_RDWR);
  Cv.wait(Lock, [this] { return !Reading; });
  if (!Dead)
    failAllPending("connection closed");
  ::close(Fd);
  Fd = -1;
}

//===----------------------------------------------------------------------===//
// The receive side: whichever call needs a frame reads it
//===----------------------------------------------------------------------===//

template <typename DoneFn>
bool CompileClient::readUntil(std::unique_lock<std::mutex> &Lock,
                              DoneFn Done) {
  while (!Done()) {
    if (Dead)
      return false;
    if (Reading) {
      Cv.wait(Lock);
      continue;
    }
    Reading = true;
    readFrame(Lock);
    Reading = false;
    Cv.notify_all();
  }
  return true;
}

void CompileClient::readFrame(std::unique_lock<std::mutex> &Lock) {
  // Read, parse and decode without the lock: only the reading role's
  // holder touches Frames and Payload.
  Lock.unlock();
  FrameStatus Status = Frames.next(Payload);
  std::optional<Json> Frame;
  std::string ParseErr;
  if (Status == FrameStatus::Ok)
    Frame = Json::parse(Payload, &ParseErr);
  // A notification is decoded before the lock is taken again.
  bool IsNote = Frame && isNotification(*Frame);
  uint64_t Ticket = 0;
  CompileResult R;
  std::exception_ptr Error;
  if (IsNote) {
    Ticket = static_cast<uint64_t>(Frame->integer("ticket", 0));
    std::string DecodeErr;
    if (const Json *Message = Frame->get("error"))
      Error = failure("server error: " + (Message->isString()
                                              ? Message->asString()
                                              : Frame->dump()));
    else if (!decodeResult(*Frame, R, DecodeErr))
      Error = failure(DecodeErr);
  }
  Lock.lock();
  if (Status != FrameStatus::Ok) {
    failAllPending(Status == FrameStatus::Eof ? "server closed the connection"
                                              : "read failed");
    return;
  }
  if (!IsNote) {
    Replies.push_back(Frame ? Reply{std::move(Frame), {}}
                            : Reply{std::nullopt,
                                    "malformed response: " + ParseErr});
    return;
  }
  R.Arrival = ++ArrivalCounter;
  // A ticket whose submitted reply has not been read yet (pipelined
  // submission) is settled anyway and parked for registerTicket.
  auto It = Tickets.find(Ticket);
  bool Claimed = It != Tickets.end();
  std::promise<CompileResult> &P =
      Claimed ? It->second : (Unclaimed[Ticket] = {});
  if (Error)
    P.set_exception(Error);
  else
    P.set_value(std::move(R));
  if (Claimed)
    Tickets.erase(It);
}

void CompileClient::failAllPending(const std::string &Why) {
  Dead = true;
  DeadReason = Why;
  std::exception_ptr Error = failure(Why);
  for (auto &KV : Tickets)
    KV.second.set_exception(Error);
  Tickets.clear();
}

//===----------------------------------------------------------------------===//
// Request / reply plumbing
//===----------------------------------------------------------------------===//

bool CompileClient::sendFrames(const std::string &Bytes, std::string *Err) {
  if (Fd < 0) {
    setErr(Err, "not connected");
    return false;
  }
  std::unique_lock<std::mutex> Lock(Mu, std::defer_lock);
  bool Holding = false; // This call holds the reading role.
  bool Ok = true;
  for (size_t Sent = 0; Ok && Sent < Bytes.size();) {
    // MSG_NOSIGNAL: a vanished server is an error return, not SIGPIPE.
    ssize_t N = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (N >= 0) {
      Sent += static_cast<size_t>(N);
      continue;
    }
    if (errno == EINTR)
      continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      Ok = false;
      break;
    }
    // The socket takes no more bytes. The server may be blocked sending
    // replies nobody reads (and so not reading this burst): hold the
    // reading role, and read while waiting for room.
    Lock.lock();
    if (!Holding) {
      Cv.wait(Lock, [this] { return !Reading || Dead; });
      Reading = Holding = !Dead;
    }
    Ok = !Dead;
    Lock.unlock();
    pollfd P = {Fd, POLLIN | POLLOUT, 0};
    // An interrupted poll() leaves revents zero and just loops.
    if (Ok && ::poll(&P, 1, -1) > 0 && (P.revents & POLLIN)) {
      Lock.lock();
      readFrame(Lock);
      Lock.unlock();
      Cv.notify_all();
    }
  }
  if (Holding) {
    Lock.lock();
    Reading = false;
    Lock.unlock();
    Cv.notify_all();
  }
  if (!Ok)
    setErr(Err, "write failed (server gone?)");
  return Ok;
}

std::optional<Json> CompileClient::awaitReply(std::string *Err) {
  std::unique_lock<std::mutex> Lock(Mu);
  if (!readUntil(Lock, [this] { return !Replies.empty(); })) {
    setErr(Err, DeadReason);
    return std::nullopt;
  }
  Reply R = std::move(Replies.front());
  Replies.pop_front();
  if (!R.Frame)
    setErr(Err, R.Err);
  return std::move(R.Frame);
}

std::optional<Json> CompileClient::request(const Json &Request,
                                           std::string *Err) {
  std::string Frame;
  if (!appendFrame(Frame, Request.dump())) {
    setErr(Err, "request exceeds the frame limit");
  } else if (sendFrames(Frame, Err)) {
    std::optional<Json> Reply = awaitReply(Err);
    // A merely malformed frame (test traffic) leaves the connection
    // usable; a dead one is closed.
    if (Reply || connected())
      return Reply;
  }
  close();
  return std::nullopt;
}

std::optional<Json> CompileClient::roundTrip(const Json &Request,
                                             const char *ExpectType,
                                             std::string *Err) {
  std::optional<Json> Response = request(Request, Err);
  if (!Response)
    return std::nullopt;
  std::string Type = Response->str("type");
  if (Type == "error") {
    setErr(Err, "server error: " + Response->str("message"));
    return std::nullopt;
  }
  if (Type != ExpectType) {
    setErr(Err, "expected '" + std::string(ExpectType) + "' response, got '" +
                    Type + "'");
    return std::nullopt;
  }
  return Response;
}

std::optional<Json> CompileClient::hello(const std::string &ClientName,
                                         int MaxCandidates, std::string *Err) {
  Json J = Json::object();
  J.set("type", "hello");
  J.set("client", ClientName);
  if (MaxCandidates > 0)
    J.set("max_candidates", MaxCandidates);
  return roundTrip(J, "welcome", Err);
}

//===----------------------------------------------------------------------===//
// Blocking compiles
//===----------------------------------------------------------------------===//

Json CompileClient::makeCompileMessage(const char *Type,
                                       const std::string &Target,
                                       Json WorkloadJson,
                                       const CompileOptions &Options) {
  Json J = Json::object();
  J.set("type", Type);
  J.set("id", NextId++);
  J.set("target", Target);
  J.set("workload", std::move(WorkloadJson));
  J.set("options", toJson(Options));
  return J;
}

std::optional<CompileClient::CompileResult>
CompileClient::compileConv(const std::string &Target, const ConvLayer &Layer,
                           const CompileOptions &Options, std::string *Err) {
  std::optional<Json> Response = roundTrip(
      makeCompileMessage("compile", Target, toJson(Layer), Options), "result",
      Err);
  if (!Response)
    return std::nullopt;
  CompileResult R;
  std::string DecodeErr;
  if (!decodeResult(*Response, R, DecodeErr)) {
    setErr(Err, DecodeErr);
    return std::nullopt;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Streaming compiles
//===----------------------------------------------------------------------===//

CompileClient::AsyncHandle CompileClient::registerTicket(uint64_t Ticket) {
  std::lock_guard<std::mutex> Lock(Mu);
  // A result read before this reply is settled already; with the
  // connection dead, nothing will ever resolve the ticket.
  auto Early = Unclaimed.extract(Ticket);
  std::promise<CompileResult> P;
  if (Early)
    P = std::move(Early.mapped());
  else if (Dead)
    P.set_exception(failure(DeadReason));
  AsyncHandle H{Ticket, P.get_future().share()};
  Outstanding.push_back(H);
  if (!Early && !Dead)
    Tickets.emplace(Ticket, std::move(P));
  return H;
}

std::optional<CompileClient::AsyncHandle>
CompileClient::submitConv(const std::string &Target, const ConvLayer &Layer,
                          const CompileOptions &Options, std::string *Err) {
  Json Msg = makeCompileMessage("compile_async", Target, toJson(Layer),
                                Options);
  std::optional<Json> Response = roundTrip(Msg, "submitted", Err);
  if (!Response)
    return std::nullopt;
  uint64_t Ticket = static_cast<uint64_t>(Response->integer("ticket", 0));
  if (Ticket == 0) {
    setErr(Err, "submitted reply missing 'ticket'");
    return std::nullopt;
  }
  return registerTicket(Ticket);
}

std::optional<std::vector<CompileClient::AsyncHandle>>
CompileClient::submitModelLayers(const std::string &Target, const Model &M,
                                 const CompileOptions &Options,
                                 std::string *Err) {
  // Write every frame first, in one write, then collect replies: the
  // server handles one connection's requests in order, so the k-th
  // submitted reply belongs to the k-th layer — and the whole burst
  // costs one round trip instead of one per layer.
  std::string Burst;
  for (const ConvLayer &L : M.Convs) {
    Json Msg = makeCompileMessage("compile_async", Target, toJson(L), Options);
    if (!appendFrame(Burst, Msg.dump())) {
      setErr(Err, "request exceeds the frame limit");
      return std::nullopt;
    }
  }
  if (!sendFrames(Burst, Err)) {
    close();
    return std::nullopt;
  }
  // Consume every reply of the batch even after a failure: returning
  // early would leave the later replies unread and desynchronize every
  // subsequent request on this connection. Tickets that did get issued
  // are registered regardless, so waitAll() still joins them.
  std::vector<AsyncHandle> Handles;
  Handles.reserve(M.Convs.size());
  std::string FirstErr;
  for (size_t I = 0; I < M.Convs.size(); ++I) {
    std::optional<Json> Reply = awaitReply(Err);
    if (!Reply) {
      close(); // Transport failure: nothing more will arrive.
      return std::nullopt;
    }
    uint64_t Ticket = static_cast<uint64_t>(Reply->integer("ticket", 0));
    if (Reply->str("type") == "submitted" && Ticket != 0) {
      Handles.push_back(registerTicket(Ticket));
    } else if (FirstErr.empty()) {
      FirstErr = Reply->str("type") == "error"
                     ? "server error: " + Reply->str("message")
                     : "expected 'submitted' reply, got '" +
                           Reply->str("type") + "'";
    }
  }
  if (!FirstErr.empty()) {
    setErr(Err, FirstErr);
    return std::nullopt;
  }
  return Handles;
}

std::optional<CompileClient::CompileResult>
CompileClient::wait(const AsyncHandle &Handle, std::string *Err) {
  if (!Handle.valid()) {
    setErr(Err, "invalid async handle");
    return std::nullopt;
  }
  {
    // A handle of this connection is resolved (failed, at worst) once the
    // connection dies; only a foreign one can still be pending then.
    std::unique_lock<std::mutex> Lock(Mu);
    if (!readUntil(Lock, [&] { return Handle.ready(); })) {
      setErr(Err, DeadReason);
      return std::nullopt;
    }
  }
  try {
    return Handle.Fut.get();
  } catch (const std::exception &E) {
    setErr(Err, E.what());
    return std::nullopt;
  }
}

bool CompileClient::waitAll(std::string *Err) {
  std::vector<AsyncHandle> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ToJoin.swap(Outstanding);
  }
  bool Ok = true;
  for (const AsyncHandle &H : ToJoin) {
    std::string HandleErr;
    if (!wait(H, &HandleErr) && std::exchange(Ok, false))
      setErr(Err, HandleErr);
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Model compiles, discovery, stats, persistence, shutdown
//===----------------------------------------------------------------------===//

std::optional<CompileClient::ModelResult>
CompileClient::compileModel(const std::string &Target, const Model &M,
                            const CompileOptions &Options, std::string *Err) {
  Json J = Json::object();
  J.set("type", "compile_model");
  J.set("id", NextId++);
  J.set("target", Target);
  J.set("model", toJson(M));
  J.set("options", toJson(Options));
  std::optional<Json> Response = roundTrip(J, "model_result", Err);
  if (!Response)
    return std::nullopt;

  const Json *Layers = Response->get("layers");
  if (!Layers || !Layers->isArray()) {
    setErr(Err, "model_result missing 'layers'");
    return std::nullopt;
  }
  ModelResult R;
  R.ModelName = Response->str("model");
  R.Layers.reserve(Layers->items().size());
  for (const Json &LayerJson : Layers->items()) {
    KernelReport Report;
    std::string DecodeErr;
    if (!kernelReportFromJson(LayerJson, Report, DecodeErr)) {
      setErr(Err, DecodeErr);
      return std::nullopt;
    }
    R.Layers.push_back(std::move(Report));
  }
  R.DistinctShapes = static_cast<size_t>(Response->integer("distinct_shapes"));
  R.CacheHitLayers =
      static_cast<size_t>(Response->integer("cache_hit_layers"));
  R.ServerWallSeconds = Response->num("wall_seconds");
  return R;
}

std::optional<std::vector<CompileClient::TargetInfo>>
CompileClient::listTargets(std::string *Err) {
  Json J = Json::object();
  J.set("type", "list_targets");
  J.set("id", NextId++);
  std::optional<Json> Response = roundTrip(J, "targets", Err);
  if (!Response)
    return std::nullopt;
  const Json *Targets = Response->get("targets");
  if (!Targets || !Targets->isArray()) {
    setErr(Err, "targets response missing 'targets'");
    return std::nullopt;
  }
  std::vector<TargetInfo> Out;
  Out.reserve(Targets->items().size());
  for (const Json &T : Targets->items()) {
    TargetInfo Info;
    Info.Id = T.str("id");
    Info.Description = T.str("description");
    Info.SupportsConv3d = T.boolean("conv3d", false);
    Info.SpecHash = T.str("spec_hash");
    Info.Source = T.str("source", "builtin");
    if (const Json *Intrs = T.get("intrinsics"))
      for (const Json &I : Intrs->items())
        if (I.isString())
          Info.Intrinsics.push_back(I.asString());
    Out.push_back(std::move(Info));
  }
  return Out;
}

std::optional<CompileClient::RegisteredTarget>
CompileClient::registerTarget(const Json &SpecDoc, std::string *Err) {
  Json J = Json::object();
  J.set("type", "register_target");
  J.set("id", NextId++);
  J.set("spec", SpecDoc);
  std::optional<Json> Response = roundTrip(J, "target_registered", Err);
  if (!Response)
    return std::nullopt;
  RegisteredTarget Out;
  Out.Id = Response->str("target");
  Out.SpecHash = Response->str("spec_hash");
  Out.Source = Response->str("source", "wire");
  return Out;
}

std::optional<Json> CompileClient::stats(bool Detail, std::string *Err) {
  Json J = Json::object();
  J.set("type", "stats");
  J.set("id", NextId++);
  if (Detail)
    J.set("detail", true);
  return roundTrip(J, "stats_result", Err);
}

std::optional<Json> CompileClient::metrics(std::string *Err) {
  Json J = Json::object();
  J.set("type", "metrics");
  J.set("id", NextId++);
  return roundTrip(J, "metrics", Err);
}

std::optional<Json> CompileClient::dumpTrace(std::string *Err) {
  Json J = Json::object();
  J.set("type", "dump_trace");
  J.set("id", NextId++);
  return roundTrip(J, "trace", Err);
}

std::optional<size_t> CompileClient::saveCache(const std::string &Path,
                                               std::string *Err) {
  Json J = Json::object();
  J.set("type", "save_cache");
  J.set("id", NextId++);
  if (!Path.empty())
    J.set("path", Path);
  std::optional<Json> Response = roundTrip(J, "saved", Err);
  if (!Response)
    return std::nullopt;
  return static_cast<size_t>(Response->integer("entries"));
}

bool CompileClient::shutdownServer(std::string *Err) {
  Json J = Json::object();
  J.set("type", "shutdown");
  bool Ok = roundTrip(J, "bye", Err).has_value();
  close();
  return Ok;
}
