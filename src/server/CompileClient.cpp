//===- server/CompileClient.cpp --------------------------------------------===//

#include "server/CompileClient.h"

#include "fabric/Endpoint.h"
#include "fabric/Handshake.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <tuple>

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
  {
    // Published before the dial: dialEndpoint reads the secret, and the
    // reader (not started yet) will read the list on reconnects.
    std::lock_guard<std::mutex> Lock(Mu);
    EndpointList = Endpoints;
    FabricSecret = Secret;
  }
  int NewFd = -1;
  size_t Chosen = 0;
  std::string FirstErr;
  for (size_t I = 0; I < Endpoints.size() && NewFd < 0; ++I) {
    std::string DialErr;
    NewFd = dialEndpoint(Endpoints[I], &DialErr);
    if (NewFd >= 0)
      Chosen = I;
    else if (FirstErr.empty())
      FirstErr = DialErr;
  }
  if (NewFd < 0) {
    setErr(Err, FirstErr.empty() ? "connect failed" : FirstErr);
    return false;
  }
  Fd.store(NewFd);
  ShuttingDown.store(false);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ReaderExited = false;
    ReaderExitReason.clear();
    Replies.clear();
    Unclaimed.clear();
    Outstanding.clear();
    TicketRequests.clear();
    ArrivalCounter = 0;
    CurrentEndpoint = Chosen;
    ConnectedPath = Endpoints[Chosen];
    HelloMsg = Json();
    HelloSent = false;
  }
  Reader = std::thread([this] { readerLoop(); });
  return true;
}

int CompileClient::dialEndpoint(const std::string &Ep, std::string *Err) {
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
  std::string SecretCopy;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    SecretCopy = FabricSecret;
  }
  Frames.reset(NewFd);
  if (!answerAuthChallenge(Frames, SecretCopy, &DetailErr)) {
    setErr(Err, "auth with " + Ep + " failed: " + DetailErr);
    ::close(NewFd);
    return -1;
  }
  return NewFd;
}

void CompileClient::close() {
  // shutdown() (not close()) wakes the reader parked in read(); the fd
  // itself is released only after the join, so the reader can never race
  // a recycled descriptor number. ShuttingDown is published under Mu,
  // paired with tryReconnect()'s commit check: either the reader sees it
  // and exits instead of installing a new fd, or it committed first and
  // the Fd read below picks up the new descriptor to shut down.
  int CurFd;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShuttingDown.store(true);
    CurFd = Fd.load();
  }
  if (CurFd >= 0)
    ::shutdown(CurFd, SHUT_RDWR);
  if (Reader.joinable())
    Reader.join();
  // Post-join re-read: a reconnect that won the race above swapped in a
  // fresh fd (and retired the one we shut down).
  CurFd = Fd.load();
  if (CurFd >= 0) {
    ::close(CurFd);
    Fd.store(-1);
  }
  std::vector<int> Dead;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Dead.swap(RetiredFds);
  }
  for (int F : Dead)
    ::close(F);
}

void CompileClient::setAutoReconnect(bool Enable, int MaxAttempts,
                                     int RetryDelayMillis) {
  std::lock_guard<std::mutex> Lock(Mu);
  AutoReconnect = Enable;
  ReconnectAttempts = MaxAttempts > 0 ? MaxAttempts : 1;
  ReconnectDelayMillis = RetryDelayMillis > 0 ? RetryDelayMillis : 0;
}

//===----------------------------------------------------------------------===//
// Reader thread: the receive side of the socket
//===----------------------------------------------------------------------===//

void CompileClient::readerLoop() {
  std::string Payload;
  while (true) {
    FrameStatus Status = Frames.next(Payload);
    if (Status != FrameStatus::Ok) {
      std::string Why = Status == FrameStatus::Eof
                            ? "server closed the connection"
                            : "read failed";
      // Auto-reconnect turns a dead transport into a redial + ticket
      // replay; only when that is off (or exhausted) does the exit
      // cascade to every pending future.
      if (tryReconnect(Why))
        continue;
      failAllPending(Why);
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
          TicketRequests.erase(Ticket); // Resolved: no replay needed.
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
    TicketRequests.clear();
  }
  for (auto &KV : Orphans)
    KV.second->set_exception(
        std::make_exception_ptr(std::runtime_error(Why)));
  ReplyCv.notify_all();
}

bool CompileClient::tryReconnect(const std::string &Why) {
  int Attempts, DelayMs;
  std::vector<std::string> Eps;
  size_t StartIdx;
  Json Hello;
  bool SendHello;
  std::unordered_map<uint64_t, std::shared_ptr<std::promise<CompileResult>>>
      Pending;
  std::unordered_map<uint64_t, Json> Requests;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!AutoReconnect || ShuttingDown.load())
      return false;
    // Gate user round trips while the wire is rebuilt: replies the old
    // connection owed are unrecoverable, so in-flight request/reply
    // exchanges fail fast instead of waiting forever. Registered tickets
    // are the replayable part — take ownership of them here.
    ReaderExited = true;
    ReaderExitReason = Why + " (reconnecting)";
    Attempts = ReconnectAttempts;
    DelayMs = ReconnectDelayMillis;
    Eps = EndpointList;
    StartIdx = CurrentEndpoint;
    Hello = HelloMsg;
    SendHello = HelloSent;
    Pending.swap(Tickets);
    Requests.swap(TicketRequests);
    // Early notes were paired with submitted replies that just died
    // unconsumed; their round trips fail, so the notes are orphans.
    Unclaimed.clear();
  }
  ReplyCv.notify_all();

  auto FailPending = [&](const std::string &Reason) {
    for (auto &KV : Pending)
      KV.second->set_exception(
          std::make_exception_ptr(std::runtime_error(Reason)));
    Pending.clear();
    return false; // Hands the reader exit to failAllPending.
  };

  // Redial. Bounded attempt rounds over the whole endpoint list,
  // starting *after* the endpoint that just died: mid-stream failover to
  // a fleet sibling is the same motion as reconnecting to a restarted
  // daemon, just one list slot over. A server restart needs a beat to
  // re-bind, hence the inter-round delay.
  if (Eps.empty())
    return FailPending("reconnect failed: no endpoints");
  int NewFd = -1;
  size_t Chosen = StartIdx;
  for (int A = 0; A < Attempts && NewFd < 0 && !ShuttingDown.load(); ++A) {
    if (A)
      std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    for (size_t E = 0; E < Eps.size() && NewFd < 0; ++E) {
      size_t Idx = (StartIdx + 1 + E) % Eps.size();
      NewFd = dialEndpoint(Eps[Idx], nullptr);
      if (NewFd >= 0)
        Chosen = Idx;
    }
  }
  if (NewFd < 0)
    return FailPending("reconnect failed: " + Why);

  // Synchronous handshake + replay on the new socket, owned entirely by
  // this (reader) thread — ReaderExited keeps user threads off the wire.
  // Frames is already bound to NewFd, so whatever it buffers past the
  // last reply stays there for the reader loop. Notifications can
  // already arrive interleaved (a replayed warm hit resolves before the
  // last submitted reply); stash them for after the ticket remap.
  std::vector<Json> Notes;
  auto ReadReply = [&](Json &Out) {
    std::string Buf;
    while (true) {
      if (Frames.next(Buf) != FrameStatus::Ok)
        return false;
      std::optional<Json> F = Json::parse(Buf, nullptr);
      if (!F)
        return false;
      if (isNotification(*F)) {
        Notes.push_back(std::move(*F));
        continue;
      }
      Out = std::move(*F);
      return true;
    }
  };
  auto Abort = [&](const std::string &Reason) {
    ::close(NewFd);
    return FailPending(Reason);
  };
  if (SendHello) {
    Json Welcome;
    if (!writeFrame(NewFd, Hello.dump()) || !ReadReply(Welcome) ||
        Welcome.str("type") != "welcome")
      return Abort("reconnect failed: hello handshake rejected");
  }
  // Pipeline every unresolved submission in one write, then collect the
  // new tickets — the server answers one connection in order, so the
  // k-th submitted reply belongs to the k-th replayed frame.
  std::vector<uint64_t> Order;
  Order.reserve(Pending.size());
  std::string Burst;
  for (const auto &KV : Pending) {
    auto RIt = Requests.find(KV.first);
    if (RIt == Requests.end())
      continue; // No retained frame (never happens for submit paths).
    if (!appendFrame(Burst, RIt->second.dump()))
      return Abort("reconnect failed: resubmission exceeds the frame limit");
    Order.push_back(KV.first);
  }
  if (!writeAll(NewFd, Burst))
    return Abort("reconnect failed: resubmission write failed");
  std::vector<std::tuple<uint64_t, uint64_t, Json>> Remapped; // old, new, msg
  for (uint64_t Old : Order) {
    Json Reply;
    if (!ReadReply(Reply))
      return Abort("reconnect failed: resubmission reply lost");
    uint64_t NewTicket =
        Reply.str("type") == "submitted"
            ? static_cast<uint64_t>(Reply.integer("ticket", 0))
            : 0;
    if (NewTicket == 0) {
      // The new server rejected this one (e.g. unknown target after a
      // config change); fail just its future, replay the rest.
      Pending[Old]->set_exception(std::make_exception_ptr(std::runtime_error(
          "resubmission rejected: " + Reply.str("message", Reply.dump()))));
      Pending.erase(Old);
      continue;
    }
    Remapped.emplace_back(Old, NewTicket, std::move(Requests[Old]));
  }

  // Commit: install the new fd and remapped tickets, reopen the gate.
  // The ShuttingDown check pairs with close() — if close() won the race,
  // installing NewFd would leave it un-shutdown and the join would hang.
  std::vector<std::pair<std::shared_ptr<std::promise<CompileResult>>, Json>>
      Resolved;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (ShuttingDown.load()) {
      ::close(NewFd);
      return FailPending("connection closed");
    }
    for (auto &T : Remapped) {
      Tickets[std::get<1>(T)] = Pending[std::get<0>(T)];
      TicketRequests[std::get<1>(T)] = std::move(std::get<2>(T));
    }
    for (Json &Note : Notes) {
      uint64_t Ticket = static_cast<uint64_t>(Note.integer("ticket", 0));
      auto It = Tickets.find(Ticket);
      if (It == Tickets.end())
        continue; // For a ticket whose resubmission was rejected.
      Resolved.emplace_back(std::move(It->second), std::move(Note));
      Tickets.erase(It);
      TicketRequests.erase(Ticket);
    }
    RetiredFds.push_back(Fd.load());
    Fd.store(NewFd);
    CurrentEndpoint = Chosen;
    ConnectedPath = Eps[Chosen];
    ResubmittedCount.fetch_add(Remapped.size());
    ReaderExited = false;
    ReaderExitReason.clear();
  }
  for (auto &KV : Resolved) {
    uint64_t Arrival;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Arrival = ++ArrivalCounter;
    }
    resolveTicket(*KV.first, KV.second, Arrival);
  }
  return true;
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
  int CurFd = Fd.load();
  if (CurFd < 0) {
    setErr(Err, "not connected");
    return false;
  }
  if (!writeAll(CurFd, Bytes)) {
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
  // With auto-reconnect on, a transport failure is the reader's to heal:
  // tearing the client down here would yank the redial out from under it
  // (and orphan the tickets it is busy replaying). The caller just sees
  // this one exchange fail.
  bool Healing;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Healing = AutoReconnect;
  }
  if (!sendRequest(Request, Err)) {
    if (!Healing)
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
    if (Dead && !Healing)
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
  std::optional<Json> Welcome = roundTrip(J, "welcome", Err);
  if (Welcome) {
    // Retain the accepted handshake: auto-reconnect replays it so the new
    // connection carries the same client name and budget.
    std::lock_guard<std::mutex> Lock(Mu);
    HelloMsg = std::move(J);
    HelloSent = true;
  }
  return Welcome;
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

std::optional<CompileClient::CompileResult>
CompileClient::compileDense(const std::string &Target, const std::string &Name,
                            int64_t In, int64_t Out,
                            const CompileOptions &Options, std::string *Err) {
  Json Work = Json::object();
  Work.set("kind", "dense");
  Work.set("name", Name);
  Work.set("in", In);
  Work.set("out", Out);
  return compileWorkload(Target, std::move(Work), Options, Err);
}

//===----------------------------------------------------------------------===//
// Streaming compiles
//===----------------------------------------------------------------------===//

CompileClient::AsyncHandle CompileClient::registerTicket(uint64_t Ticket,
                                                         Json RequestMsg) {
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
      // Pending: retain the frame so auto-reconnect can resubmit it.
      TicketRequests.emplace(Ticket, std::move(RequestMsg));
    }
    Outstanding.push_back(H);
  }
  if (Early)
    resolveTicket(*P, Early->Frame, Early->Arrival);
  return H;
}

std::optional<CompileClient::AsyncHandle>
CompileClient::submitWorkload(const std::string &Target, Json WorkloadJson,
                              const CompileOptions &Options,
                              std::string *Err) {
  Json Msg = makeCompileMessage("compile_async", Target,
                                std::move(WorkloadJson), Options);
  std::optional<Json> Response = roundTrip(Msg, "submitted", Err);
  if (!Response)
    return std::nullopt;
  uint64_t Ticket = static_cast<uint64_t>(Response->integer("ticket", 0));
  if (Ticket == 0) {
    setErr(Err, "submitted reply missing 'ticket'");
    return std::nullopt;
  }
  return registerTicket(Ticket, std::move(Msg));
}

std::optional<CompileClient::AsyncHandle>
CompileClient::submitConv(const std::string &Target, const ConvLayer &Layer,
                          const CompileOptions &Options, std::string *Err) {
  return submitWorkload(Target, toJson(Layer), Options, Err);
}

std::optional<CompileClient::AsyncHandle>
CompileClient::submitConv3d(const std::string &Target,
                            const Conv3dLayer &Layer,
                            const CompileOptions &Options, std::string *Err) {
  return submitWorkload(Target, toJson(Layer), Options, Err);
}

std::optional<CompileClient::AsyncHandle>
CompileClient::submitDense(const std::string &Target, const std::string &Name,
                           int64_t In, int64_t Out,
                           const CompileOptions &Options, std::string *Err) {
  Json Work = Json::object();
  Work.set("kind", "dense");
  Work.set("name", Name);
  Work.set("in", In);
  Work.set("out", Out);
  return submitWorkload(Target, std::move(Work), Options, Err);
}

std::optional<std::vector<CompileClient::AsyncHandle>>
CompileClient::submitModelLayers(const std::string &Target, const Model &M,
                                 const CompileOptions &Options,
                                 std::string *Err) {
  // Write every frame first, in one write, then collect replies: the
  // server handles one connection's requests in order, so the k-th
  // submitted reply belongs to the k-th layer — and the whole burst
  // costs one round trip instead of one per layer.
  std::vector<Json> Messages;
  Messages.reserve(M.Convs.size());
  std::string Burst;
  for (const ConvLayer &L : M.Convs) {
    Messages.push_back(
        makeCompileMessage("compile_async", Target, toJson(L), Options));
    if (!appendFrame(Burst, Messages.back().dump())) {
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
      Handles.push_back(registerTicket(Ticket, std::move(Messages[I])));
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

bool CompileClient::cancel(const AsyncHandle &Handle, std::string *Err) {
  Json J = Json::object();
  J.set("type", "cancel");
  J.set("id", NextId++);
  J.set("ticket", Handle.Ticket);
  std::optional<Json> Response = roundTrip(J, "cancelled", Err);
  if (!Response)
    return false;
  if (Response->boolean("was_pending", false)) {
    // No notification will ever come: resolve the local future as
    // cancelled and stop waitAll from waiting on it.
    std::shared_ptr<std::promise<CompileResult>> P;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Tickets.find(Handle.Ticket);
      if (It != Tickets.end()) {
        P = std::move(It->second);
        Tickets.erase(It);
        TicketRequests.erase(Handle.Ticket);
      }
      Outstanding.erase(
          std::remove_if(Outstanding.begin(), Outstanding.end(),
                         [&](const AsyncHandle &H) {
                           return H.Ticket == Handle.Ticket;
                         }),
          Outstanding.end());
    }
    if (P)
      P->set_exception(std::make_exception_ptr(
          std::runtime_error("cancelled by this client")));
  }
  return true;
}

std::optional<std::string> CompileClient::poll(const AsyncHandle &Handle,
                                               std::string *Err) {
  Json J = Json::object();
  J.set("type", "poll");
  J.set("id", NextId++);
  J.set("ticket", Handle.Ticket);
  std::optional<Json> Response = roundTrip(J, "ticket_status", Err);
  if (!Response)
    return std::nullopt;
  return Response->str("state");
}

size_t CompileClient::pendingTickets() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Tickets.size();
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
