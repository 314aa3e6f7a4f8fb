//===- server/CompileClient.cpp --------------------------------------------===//

#include "server/CompileClient.h"

#include "fabric/Endpoint.h"
#include "fabric/Handshake.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace unit;

namespace {

void setErr(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
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
  for (size_t I = 0; I < Endpoints.size() && Fd < 0; ++I) {
    std::string DialErr;
    Fd = dialEndpoint(Endpoints[I], Secret, &DialErr);
    if (Fd < 0 && FirstErr.empty())
      FirstErr = DialErr;
  }
  if (Fd < 0) {
    setErr(Err, FirstErr.empty() ? "connect failed" : FirstErr);
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ReaderExited = false;
    ReaderExitReason.clear();
    Replies.clear();
    Unclaimed.clear();
    Outstanding.clear();
    ArrivalCounter = 0;
  }
  Reader = std::thread([this] { readerLoop(); });
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
  // shutdown() (not close()) wakes the reader parked in read(); the fd
  // itself is released only after the join, so the reader can never race
  // a recycled descriptor number.
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
  if (Reader.joinable())
    Reader.join();
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

//===----------------------------------------------------------------------===//
// Reader thread: the receive side of the socket
//===----------------------------------------------------------------------===//

void CompileClient::readerLoop() {
  std::string Payload;
  while (true) {
    FrameStatus Status = Frames.next(Payload);
    if (Status != FrameStatus::Ok) {
      failAllPending(Status == FrameStatus::Eof ? "server closed the connection"
                                                : "read failed");
      return;
    }
    std::string ParseErr;
    std::optional<Json> Frame = Json::parse(Payload, &ParseErr);
    if (Frame && isNotification(*Frame)) {
      uint64_t Ticket = static_cast<uint64_t>(Frame->integer("ticket", 0));
      std::shared_ptr<std::promise<CompileResult>> P;
      uint64_t Arrival = 0;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Arrival = ++ArrivalCounter;
        auto It = Tickets.find(Ticket);
        if (It != Tickets.end()) {
          P = std::move(It->second);
          Tickets.erase(It);
        } else {
          // The submitted reply naming this ticket has not been consumed
          // yet (pipelined submission); park the note for registerTicket.
          Unclaimed[Ticket] = EarlyNote{std::move(*Frame), Arrival};
        }
      }
      if (P)
        resolveTicket(*P, *Frame, Arrival);
      continue;
    }
    {
      std::lock_guard<std::mutex> Lock(Mu);
      QueuedReply R;
      if (Frame)
        R.Frame = std::move(*Frame);
      else
        R.Err = "malformed response: " + ParseErr;
      Replies.push_back(std::move(R));
    }
    ReplyCv.notify_all();
  }
}

void CompileClient::failAllPending(const std::string &Why) {
  std::unordered_map<uint64_t, std::shared_ptr<std::promise<CompileResult>>>
      Orphans;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ReaderExited = true;
    ReaderExitReason = Why;
    Orphans.swap(Tickets);
  }
  for (auto &KV : Orphans)
    KV.second->set_exception(
        std::make_exception_ptr(std::runtime_error(Why)));
  ReplyCv.notify_all();
}

void CompileClient::resolveTicket(std::promise<CompileResult> &P,
                                  const Json &Note, uint64_t Arrival) {
  if (const Json *Error = Note.get("error")) {
    P.set_exception(std::make_exception_ptr(std::runtime_error(
        "server error: " +
        (Error->isString() ? Error->asString() : Note.dump()))));
    return;
  }
  const Json *ReportJson = Note.get("report");
  CompileResult R;
  std::string DecodeErr;
  if (!ReportJson || !kernelReportFromJson(*ReportJson, R.Report, DecodeErr)) {
    P.set_exception(std::make_exception_ptr(std::runtime_error(
        DecodeErr.empty() ? "result missing 'report'" : DecodeErr)));
    return;
  }
  R.Cached = Note.boolean("cached", false);
  R.Arrival = Arrival;
  P.set_value(std::move(R));
}

//===----------------------------------------------------------------------===//
// Request / reply plumbing
//===----------------------------------------------------------------------===//

bool CompileClient::sendRequest(const Json &Request, std::string *Err) {
  std::string Frame;
  if (!appendFrame(Frame, Request.dump())) {
    setErr(Err, "request exceeds the frame limit");
    return false;
  }
  return sendFrames(Frame, Err);
}

bool CompileClient::sendFrames(const std::string &Bytes, std::string *Err) {
  if (Fd < 0) {
    setErr(Err, "not connected");
    return false;
  }
  if (!writeAll(Fd, Bytes)) {
    setErr(Err, "write failed (server gone?)");
    return false;
  }
  return true;
}

std::optional<Json> CompileClient::awaitReply(std::string *Err) {
  std::unique_lock<std::mutex> Lock(Mu);
  ReplyCv.wait(Lock, [this] { return !Replies.empty() || ReaderExited; });
  if (Replies.empty()) {
    setErr(Err, ReaderExitReason.empty() ? "connection closed"
                                         : ReaderExitReason);
    return std::nullopt;
  }
  QueuedReply R = std::move(Replies.front());
  Replies.pop_front();
  if (!R.Frame) {
    setErr(Err, R.Err);
    return std::nullopt;
  }
  return std::move(R.Frame);
}

std::optional<Json> CompileClient::request(const Json &Request,
                                           std::string *Err) {
  if (!sendRequest(Request, Err)) {
    close();
    return std::nullopt;
  }
  std::optional<Json> Reply = awaitReply(Err);
  if (!Reply) {
    // A dead reader means a dead connection; a merely malformed frame
    // (test traffic) leaves the connection usable.
    bool Dead;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Dead = ReaderExited;
    }
    if (Dead)
      close();
  }
  return Reply;
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

std::optional<CompileClient::CompileResult>
CompileClient::decodeResult(const Json &Response, std::string *Err) {
  const Json *ReportJson = Response.get("report");
  if (!ReportJson) {
    setErr(Err, "result missing 'report'");
    return std::nullopt;
  }
  CompileResult R;
  std::string DecodeErr;
  if (!kernelReportFromJson(*ReportJson, R.Report, DecodeErr)) {
    setErr(Err, DecodeErr);
    return std::nullopt;
  }
  R.Cached = Response.boolean("cached", false);
  return R;
}

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
CompileClient::compileWorkload(const std::string &Target, Json WorkloadJson,
                               const CompileOptions &Options,
                               std::string *Err) {
  std::optional<Json> Response =
      roundTrip(makeCompileMessage("compile", Target, std::move(WorkloadJson),
                                   Options),
                "result", Err);
  if (!Response)
    return std::nullopt;
  return decodeResult(*Response, Err);
}

std::optional<CompileClient::CompileResult>
CompileClient::compileConv(const std::string &Target, const ConvLayer &Layer,
                           const CompileOptions &Options, std::string *Err) {
  return compileWorkload(Target, toJson(Layer), Options, Err);
}

std::optional<CompileClient::CompileResult>
CompileClient::compileConv3d(const std::string &Target,
                             const Conv3dLayer &Layer,
                             const CompileOptions &Options, std::string *Err) {
  return compileWorkload(Target, toJson(Layer), Options, Err);
}

//===----------------------------------------------------------------------===//
// Streaming compiles
//===----------------------------------------------------------------------===//

CompileClient::AsyncHandle CompileClient::registerTicket(uint64_t Ticket) {
  auto P = std::make_shared<std::promise<CompileResult>>();
  AsyncHandle H;
  H.Ticket = Ticket;
  H.Fut = P->get_future().share();
  std::optional<EarlyNote> Early;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Unclaimed.find(Ticket);
    if (It != Unclaimed.end()) {
      Early = std::move(It->second);
      Unclaimed.erase(It);
    } else if (ReaderExited) {
      // The connection died between the submitted reply and now; nobody
      // will ever resolve this ticket — fail it instead of parking it.
      P->set_exception(std::make_exception_ptr(std::runtime_error(
          ReaderExitReason.empty() ? "connection closed" : ReaderExitReason)));
      Outstanding.push_back(H);
      return H;
    } else {
      Tickets.emplace(Ticket, P);
    }
    Outstanding.push_back(H);
  }
  if (Early)
    resolveTicket(*P, Early->Frame, Early->Arrival);
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
  // early would leave the later replies queued and desynchronize every
  // subsequent request on this connection. Tickets that did get issued
  // are registered regardless, so waitAll() still joins (and the reader
  // still routes) their notifications.
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
  std::string FirstErr;
  for (const AsyncHandle &H : ToJoin) {
    std::string HandleErr;
    if (!wait(H, &HandleErr) && Ok) {
      Ok = false;
      FirstErr = HandleErr;
    }
  }
  if (!Ok)
    setErr(Err, FirstErr);
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
