//===- server/Protocol.cpp -------------------------------------------------===//

#include "server/Protocol.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

using namespace unit;

namespace {

/// Is \p N exactly an int64? Fractional values must be wire errors (or
/// tolerant-accessor defaults), never silent truncations — and casting
/// an out-of-range double to int64 is UB. 2^53 bounds what a double
/// represents exactly anyway.
bool integralInRange(double N) {
  return N == std::floor(N) && std::fabs(N) <= 9007199254740992.0; // 2^53
}

} // namespace

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

Json &Json::set(std::string_view Key, Json Value) {
  K = Kind::Object;
  for (auto &KV : Fields)
    if (KV.first == Key) {
      KV.second = std::move(Value);
      return *this;
    }
  Fields.emplace_back(Key, std::move(Value));
  return *this;
}

const Json *Json::get(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &KV : Fields)
    if (KV.first == Key)
      return &KV.second;
  return nullptr;
}

std::string Json::str(std::string_view Key, std::string_view Dflt) const {
  const Json *J = get(Key);
  return J && J->isString() ? J->asString() : std::string(Dflt);
}

double Json::num(std::string_view Key, double Dflt) const {
  const Json *J = get(Key);
  return J && J->isNumber() ? J->asNumber() : Dflt;
}

int64_t Json::integer(std::string_view Key, int64_t Dflt) const {
  const Json *J = get(Key);
  if (!J || !J->isNumber() || !integralInRange(J->asNumber()))
    return Dflt;
  return J->asInt();
}

bool Json::boolean(std::string_view Key, bool Dflt) const {
  const Json *J = get(Key);
  return J && J->isBool() ? J->asBool() : Dflt;
}

namespace {

void dumpString(const std::string &S, std::string &Out) {
  Out += '"';
  // Runs of bytes that need no escape are appended whole.
  size_t Run = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    char C = S[I];
    const char *Escape = nullptr; // Other control bytes: \u00XX.
    switch (C) {
    case '"': Escape = "\\\""; break;
    case '\\': Escape = "\\\\"; break;
    case '\n': Escape = "\\n"; break;
    case '\r': Escape = "\\r"; break;
    case '\t': Escape = "\\t"; break;
    case '\b': Escape = "\\b"; break;
    case '\f': Escape = "\\f"; break;
    default:
      if (static_cast<unsigned char>(C) >= 0x20)
        continue;
    }
    Out.append(S, Run, I - Run);
    Run = I + 1;
    if (Escape)
      Out += Escape;
    else
      Out += formatStr("\\u%04x",
                       static_cast<unsigned>(static_cast<unsigned char>(C)));
  }
  Out.append(S, Run, std::string::npos);
  Out += '"';
}

void dumpValue(const Json &J, std::string &Out) {
  switch (J.kind()) {
  case Json::Kind::Null:
    Out += "null";
    return;
  case Json::Kind::Bool:
    Out += J.asBool() ? "true" : "false";
    return;
  case Json::Kind::Number: {
    double N = J.asNumber();
    if (!std::isfinite(N))
      N = 0;
    // Integers (the common case: dims, counts) print without an exponent
    // or trailing zeros; everything else round-trips via shortest-exact
    // to_chars. Locale-independent on purpose — printf %g under a
    // non-C LC_NUMERIC would emit a ',' decimal point, i.e. invalid
    // JSON, and clients embed in hosts that may setlocale().
    char Buf[64];
    std::to_chars_result R =
        N == std::floor(N) && std::fabs(N) < 1e15
            ? std::to_chars(Buf, Buf + sizeof(Buf), static_cast<long long>(N))
            : std::to_chars(Buf, Buf + sizeof(Buf), N);
    Out.append(Buf, R.ptr);
    return;
  }
  case Json::Kind::String:
    dumpString(J.asString(), Out);
    return;
  case Json::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Json &Item : J.items()) {
      if (!First)
        Out += ',';
      First = false;
      dumpValue(Item, Out);
    }
    Out += ']';
    return;
  }
  case Json::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &KV : J.members()) {
      if (!First)
        Out += ',';
      First = false;
      dumpString(KV.first, Out);
      Out += ':';
      dumpValue(KV.second, Out);
    }
    Out += '}';
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Parser: recursive descent, depth-bounded.
//===----------------------------------------------------------------------===//

constexpr int MaxParseDepth = 64;

} // namespace

/// Every value is built in its final slot: a member or item is emplaced
/// first and parsed straight into, never parsed into a temporary and then
/// moved.
namespace unit {
struct JsonParser {
  const char *Cur;
  const char *End;
  std::string Err;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  void skipWs() {
    while (Cur != End &&
           (*Cur == ' ' || *Cur == '\t' || *Cur == '\n' || *Cur == '\r'))
      ++Cur;
  }

  bool literal(const char *Lit) {
    size_t Len = std::strlen(Lit);
    if (static_cast<size_t>(End - Cur) < Len || std::strncmp(Cur, Lit, Len) != 0)
      return fail(std::string("expected '") + Lit + "'");
    Cur += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (Cur == End || *Cur != '"')
      return fail("expected string");
    ++Cur;
    Out.clear();
    while (Cur != End && *Cur != '"') {
      // Bytes up to the next quote or backslash are copied in one append.
      const char *Run = Cur;
      while (Cur != End && *Cur != '"' && *Cur != '\\')
        ++Cur;
      Out.append(Run, Cur);
      if (Cur == End || *Cur == '"')
        break;
      ++Cur; // The backslash.
      if (Cur == End)
        return fail("truncated escape");
      char E = *Cur++;
      switch (E) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'n': Out += '\n'; break;
      case 'r': Out += '\r'; break;
      case 't': Out += '\t'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        if (End - Cur < 4)
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = *Cur++;
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs are beyond
        // what protocol strings need; lone surrogates encode as-is).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("bad escape");
      }
    }
    if (Cur == End)
      return fail("unterminated string");
    ++Cur; // closing quote
    return true;
  }

  /// Parses one value into \p Out, a null Json in its final place.
  bool parseValue(Json &Out, int Depth) {
    if (Depth > MaxParseDepth)
      return fail("nesting too deep");
    skipWs();
    if (Cur == End)
      return fail("unexpected end of input");
    switch (*Cur) {
    case 'n':
      return literal("null");
    case 't':
    case 'f':
      Out.K = Json::Kind::Bool;
      Out.BoolVal = *Cur == 't';
      return literal(Out.BoolVal ? "true" : "false");
    case '"':
      Out.K = Json::Kind::String;
      return parseString(Out.StrVal);
    case '[': {
      ++Cur;
      Out.K = Json::Kind::Array;
      skipWs();
      if (Cur != End && *Cur == ']') {
        ++Cur;
        return true;
      }
      while (true) {
        if (!parseValue(Out.Items.emplace_back(), Depth + 1))
          return false;
        skipWs();
        if (Cur == End)
          return fail("unterminated array");
        if (*Cur == ',') {
          ++Cur;
          continue;
        }
        if (*Cur == ']') {
          ++Cur;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '{': {
      ++Cur;
      Out.K = Json::Kind::Object;
      skipWs();
      if (Cur != End && *Cur == '}') {
        ++Cur;
        return true;
      }
      // Members append without a duplicate scan, so a large object
      // parses in linear time; a duplicate key resolves to its first
      // occurrence (get() scans front to back).
      Out.Fields.reserve(Json::ObjectReserve);
      while (true) {
        skipWs();
        auto &[Key, Value] = Out.Fields.emplace_back();
        if (!parseString(Key))
          return false;
        skipWs();
        if (Cur == End || *Cur != ':')
          return fail("expected ':'");
        ++Cur;
        if (!parseValue(Value, Depth + 1))
          return false;
        skipWs();
        if (Cur == End)
          return fail("unterminated object");
        if (*Cur == ',') {
          ++Cur;
          continue;
        }
        if (*Cur == '}') {
          ++Cur;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    default: {
      // Number. from_chars, not strtod: the JSON grammar's '.' decimal
      // point must parse identically no matter the host's LC_NUMERIC.
      // from_chars is also stricter in the right ways (no leading '+'),
      // except it accepts "inf"/"nan" — which JSON forbids, hence the
      // leading-character and finiteness guards.
      if (*Cur != '-' && !(*Cur >= '0' && *Cur <= '9'))
        return fail("expected value");
      std::from_chars_result R = std::from_chars(Cur, End, Out.NumVal);
      if (R.ec != std::errc() || R.ptr == Cur || !std::isfinite(Out.NumVal))
        return fail("expected value");
      Cur = R.ptr;
      Out.K = Json::Kind::Number;
      return true;
    }
    }
  }
};
} // namespace unit

std::string Json::dump() const {
  std::string Out;
  Out.reserve(256); // Most protocol messages fit: one allocation, no regrowth.
  dumpValue(*this, Out);
  return Out;
}

std::optional<Json> Json::parse(std::string_view Text, std::string *Err) {
  JsonParser P{Text.data(), Text.data() + Text.size(), {}};
  std::optional<Json> Out(std::in_place);
  if (!P.parseValue(*Out, 0)) {
    if (Err)
      *Err = P.Err;
    return std::nullopt;
  }
  P.skipWs();
  if (P.Cur != P.End) {
    if (Err)
      *Err = "trailing garbage after JSON value";
    return std::nullopt;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Frame I/O
//===----------------------------------------------------------------------===//

namespace {

/// The big-endian length prefix appendFrame writes.
uint32_t frameLength(const char *Header) {
  uint32_t Len = 0;
  for (int I = 0; I < 4; ++I)
    Len = (Len << 8) | static_cast<unsigned char>(Header[I]);
  return Len;
}

} // namespace

bool unit::appendFrame(std::string &Out, const std::string &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  const char Header[4] = {static_cast<char>(Len >> 24),
                          static_cast<char>(Len >> 16),
                          static_cast<char>(Len >> 8), static_cast<char>(Len)};
  Out.append(Header, 4).append(Payload);
  return true;
}

bool unit::writeAll(int Fd, const std::string &Bytes) {
  for (size_t Sent = 0; Sent < Bytes.size();) {
    // MSG_NOSIGNAL: a peer closing mid-write must surface as an error
    // return, not SIGPIPE — clients and embedding hosts do not install
    // the signal handling the daemon does. Non-socket fds (pipes,
    // socketpair stand-ins in tests) reject send() with ENOTSOCK; fall
    // back to write() for them.
    const char *Data = Bytes.data() + Sent;
    ssize_t N = ::send(Fd, Data, Bytes.size() - Sent, MSG_NOSIGNAL);
    if (N < 0 && errno == ENOTSOCK)
      N = ::write(Fd, Data, Bytes.size() - Sent);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return false;
    Sent += static_cast<size_t>(N);
  }
  return true;
}

bool unit::writeFrame(int Fd, const std::string &Payload) {
  // One contiguous buffer, one write loop: a separate 4-byte header write
  // costs an extra TCP segment (and a Nagle/delayed-ACK stall for small
  // frames) once frames cross real network links instead of a local
  // Unix socket.
  std::string Frame;
  return appendFrame(Frame, Payload) && writeAll(Fd, Frame);
}

void FrameReader::reset(int NewFd) {
  Fd = NewFd;
  Buf.reset();
  Cap = Begin = End = 0;
}

bool FrameReader::ready() const {
  size_t Avail = End - Begin;
  if (Avail < 4)
    return false;
  uint32_t Len = frameLength(Buf.get() + Begin);
  return Len > MaxFrameBytes || Avail - 4 >= Len;
}

FrameStatus FrameReader::next(std::string &Payload) {
  for (;;) {
    size_t Avail = End - Begin;
    size_t Need = 4; // Bytes of the next frame, header included.
    if (Avail >= 4) {
      uint32_t Len = frameLength(Buf.get() + Begin);
      if (Len > MaxFrameBytes)
        return FrameStatus::Error;
      Need += Len;
      if (Avail >= Need) {
        Payload.assign(Buf.get() + Begin + 4, Len);
        Begin += Need;
        if (Begin == End) {
          Begin = End = 0;
          if (Cap > ChunkBytes) // A large frame's buffer is not kept.
            reset(Fd);
        }
        return FrameStatus::Ok;
      }
    }
    // Make room for the rest of the frame, or a chunk, whichever is more:
    // the partial frame moves to the front, or into a larger buffer.
    size_t Want = std::max(Need, ChunkBytes);
    if (Cap < Want) {
      std::unique_ptr<char[]> Bigger(new char[Want]);
      if (Avail > 0)
        std::memcpy(Bigger.get(), Buf.get() + Begin, Avail);
      Buf = std::move(Bigger);
      Cap = Want;
    } else if (Begin > 0 && Avail > 0) {
      std::memmove(Buf.get(), Buf.get() + Begin, Avail);
    }
    Begin = 0;
    End = Avail;
    ssize_t N = ::read(Fd, Buf.get() + End, Cap - End);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return FrameStatus::Error;
    if (N == 0)
      return Avail == 0 ? FrameStatus::Eof : FrameStatus::Error;
    End += static_cast<size_t>(N);
  }
}

//===----------------------------------------------------------------------===//
// Schema codecs
//===----------------------------------------------------------------------===//

Json unit::toJson(const ConvLayer &L) {
  Json J = Json::object();
  J.set("kind", "conv2d");
  J.set("name", L.Name);
  J.set("in_c", L.InC).set("in_h", L.InH).set("in_w", L.InW);
  J.set("out_c", L.OutC);
  J.set("k_h", L.KH).set("k_w", L.KW);
  J.set("stride", L.Stride);
  J.set("pad_h", L.PadH).set("pad_w", L.PadW);
  if (L.Depthwise)
    J.set("depthwise", true);
  return J;
}

Json unit::toJson(const Conv3dLayer &L) {
  Json J = Json::object();
  J.set("kind", "conv3d");
  J.set("name", L.Name);
  J.set("in_c", L.InC).set("in_d", L.InD).set("in_h", L.InH).set("in_w", L.InW);
  J.set("out_c", L.OutC);
  J.set("k", L.K).set("stride", L.Stride).set("pad", L.Pad);
  return J;
}

Json unit::toJson(const Model &M) {
  Json Layers = Json::array();
  for (const ConvLayer &L : M.Convs)
    Layers.push(toJson(L));
  Json J = Json::object();
  J.set("name", M.Name);
  J.set("layers", std::move(Layers));
  J.set("elementwise_bytes", M.ElementwiseBytes);
  J.set("glue_ops", M.GlueOps);
  return J;
}

Json unit::toJson(const KernelReport &R) {
  Json J = Json::object();
  J.set("seconds", R.Seconds);
  J.set("tensorized", R.Tensorized);
  J.set("best_candidate_index", R.BestCandidateIndex);
  J.set("candidates_tried", R.CandidatesTried);
  J.set("intrinsic", R.IntrinsicName);
  return J;
}

Json unit::toJson(const CompileOptions &O) {
  Json J = Json::object();
  J.set("max_candidates", O.MaxCandidates);
  return J;
}

Json unit::toJson(const obs::HistogramSnapshot &S) {
  Json J = Json::object();
  J.set("count", S.Count);
  J.set("sum", S.SumSeconds);
  J.set("p50", S.quantile(0.50));
  J.set("p95", S.quantile(0.95));
  J.set("p99", S.quantile(0.99));
  int Last = -1;
  for (int B = 0; B < obs::HistogramSnapshot::OverflowBucket; ++B)
    if (S.Buckets[B])
      Last = B;
  Json Buckets = Json::array();
  uint64_t Cumulative = 0;
  for (int B = 0; B <= Last; ++B) {
    Cumulative += S.Buckets[B];
    Json Bk = Json::object();
    Bk.set("le", obs::HistogramSnapshot::upperBoundSeconds(B));
    Bk.set("count", Cumulative);
    Buckets.push(std::move(Bk));
  }
  Json Inf = Json::object();
  Inf.set("le", "+Inf");
  Inf.set("count", S.Count);
  Buckets.push(std::move(Inf));
  J.set("buckets", std::move(Buckets));
  return J;
}

Json unit::chromeTraceJson(const std::vector<obs::TraceEvent> &Events) {
  Json List = Json::array();
  for (const obs::TraceEvent &E : Events) {
    Json Args = Json::object();
    Args.set("span", E.SpanId);
    Args.set("parent", E.ParentId);
    if (E.Args[0])
      Args.set("note", std::string(E.Args,
                                   strnlen(E.Args, sizeof(E.Args))));
    Json Ev = Json::object();
    Ev.set("name", std::string(E.Name, strnlen(E.Name, sizeof(E.Name))));
    Ev.set("ph", "X");
    Ev.set("ts", E.StartMicros);
    Ev.set("dur", E.DurationMicros);
    Ev.set("pid", 1);
    Ev.set("tid", E.ThreadTag);
    Ev.set("args", std::move(Args));
    List.push(std::move(Ev));
  }
  Json J = Json::object();
  J.set("traceEvents", std::move(List));
  return J;
}

namespace {

/// Fetches a required integral field into \p Out.
bool requireInt(const Json &J, const char *Key, int64_t &Out,
                std::string &Err) {
  const Json *F = J.get(Key);
  if (!F || !F->isNumber()) {
    Err = std::string("missing or non-numeric field '") + Key + "'";
    return false;
  }
  if (!integralInRange(F->asNumber())) {
    Err = std::string("field '") + Key + "' must be an integer";
    return false;
  }
  Out = F->asInt();
  return true;
}

} // namespace

bool unit::readIntField(const Json &Obj, const char *Key, int64_t Dflt,
                        int64_t &Out, std::string &Err) {
  const Json *F = Obj.get(Key);
  if (!F) {
    Out = Dflt;
    return true;
  }
  if (!F->isNumber() || !integralInRange(F->asNumber())) {
    Err = std::string("field '") + Key + "' must be an integer";
    return false;
  }
  Out = F->asInt();
  return true;
}

bool unit::makeUnixSocketAddr(const std::string &Path, sockaddr_un &Addr,
                              std::string *Err) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path empty or too long for sun_path";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

namespace {

bool checkDims(std::initializer_list<int64_t> Dims, std::string &Err) {
  for (int64_t D : Dims)
    if (D > MaxWorkloadDim) {
      Err = "workload dimension exceeds the supported maximum (" +
            std::to_string(MaxWorkloadDim) + ")";
      return false;
    }
  return true;
}

} // namespace

bool unit::convLayerFromJson(const Json &J, ConvLayer &L, std::string &Err) {
  if (!J.isObject()) {
    Err = "conv2d workload must be an object";
    return false;
  }
  L.Name = J.str("name");
  if (!requireInt(J, "in_c", L.InC, Err) || !requireInt(J, "in_h", L.InH, Err) ||
      !requireInt(J, "in_w", L.InW, Err) ||
      !requireInt(J, "out_c", L.OutC, Err) ||
      !requireInt(J, "k_h", L.KH, Err) || !requireInt(J, "k_w", L.KW, Err))
    return false;
  if (!readIntField(J, "stride", 1, L.Stride, Err) ||
      !readIntField(J, "pad_h", 0, L.PadH, Err) ||
      !readIntField(J, "pad_w", 0, L.PadW, Err))
    return false;
  L.Depthwise = J.boolean("depthwise", false);
  if (L.InC <= 0 || L.InH <= 0 || L.InW <= 0 || L.OutC <= 0 || L.KH <= 0 ||
      L.KW <= 0 || L.Stride <= 0 || L.PadH < 0 || L.PadW < 0) {
    Err = "conv2d dimensions must be positive (pads non-negative)";
    return false;
  }
  if (!checkDims({L.InC, L.InH, L.InW, L.OutC, L.KH, L.KW, L.Stride, L.PadH,
                  L.PadW},
                 Err))
    return false;
  // A kernel larger than the padded input would lower to an empty (or
  // negative-extent) output nest — a fatal error in-process, so it must
  // be a wire error here.
  if (L.outH() <= 0 || L.outW() <= 0) {
    Err = "conv2d output extent is not positive (kernel larger than the "
          "padded input?)";
    return false;
  }
  return true;
}

bool unit::conv3dLayerFromJson(const Json &J, Conv3dLayer &L,
                               std::string &Err) {
  if (!J.isObject()) {
    Err = "conv3d workload must be an object";
    return false;
  }
  L.Name = J.str("name");
  if (!requireInt(J, "in_c", L.InC, Err) || !requireInt(J, "in_d", L.InD, Err) ||
      !requireInt(J, "in_h", L.InH, Err) || !requireInt(J, "in_w", L.InW, Err) ||
      !requireInt(J, "out_c", L.OutC, Err) || !requireInt(J, "k", L.K, Err))
    return false;
  if (!readIntField(J, "stride", 1, L.Stride, Err) ||
      !readIntField(J, "pad", 0, L.Pad, Err))
    return false;
  if (L.InC <= 0 || L.InD <= 0 || L.InH <= 0 || L.InW <= 0 || L.OutC <= 0 ||
      L.K <= 0 || L.Stride <= 0 || L.Pad < 0) {
    Err = "conv3d dimensions must be positive (pad non-negative)";
    return false;
  }
  if (!checkDims({L.InC, L.InD, L.InH, L.InW, L.OutC, L.K, L.Stride, L.Pad},
                 Err))
    return false;
  if (L.outD() <= 0 || L.outH() <= 0 || L.outW() <= 0) {
    Err = "conv3d output extent is not positive (kernel larger than the "
          "padded input?)";
    return false;
  }
  return true;
}

bool unit::modelFromJson(const Json &J, Model &M, std::string &Err) {
  if (!J.isObject()) {
    Err = "model must be an object";
    return false;
  }
  M.Name = J.str("name", "unnamed");
  const Json *Layers = J.get("layers");
  if (!Layers || !Layers->isArray() || Layers->items().empty()) {
    Err = "model requires a non-empty 'layers' array";
    return false;
  }
  M.Convs.clear();
  for (const Json &LayerJson : Layers->items()) {
    ConvLayer L;
    if (!convLayerFromJson(LayerJson, L, Err))
      return false;
    M.Convs.push_back(std::move(L));
  }
  M.ElementwiseBytes = J.num("elementwise_bytes", 0);
  M.GlueOps = static_cast<int>(J.integer("glue_ops", 0));
  return true;
}

bool unit::kernelReportFromJson(const Json &J, KernelReport &R,
                                std::string &Err) {
  if (!J.isObject()) {
    Err = "report must be an object";
    return false;
  }
  const Json *Seconds = J.get("seconds");
  if (!Seconds || !Seconds->isNumber()) {
    Err = "report missing 'seconds'";
    return false;
  }
  R.Seconds = Seconds->asNumber();
  R.Tensorized = J.boolean("tensorized", false);
  R.BestCandidateIndex = static_cast<int>(J.integer("best_candidate_index", -1));
  R.CandidatesTried = static_cast<int>(J.integer("candidates_tried", 0));
  R.IntrinsicName = J.str("intrinsic");
  return true;
}

Json unit::makeResultNotification(uint64_t Ticket, bool Cached,
                                  const KernelReport &R) {
  Json J = Json::object();
  J.set("type", "result");
  J.set("ticket", Ticket);
  J.set("cached", Cached);
  J.set("report", toJson(R));
  return J;
}

Json unit::makeErrorNotification(uint64_t Ticket, const std::string &Message) {
  Json J = Json::object();
  J.set("type", "result");
  J.set("ticket", Ticket);
  J.set("error", Message);
  return J;
}

bool unit::isNotification(const Json &Frame) {
  // Only "result" frames are ever pushed; the submitted reply also
  // carries a ticket but has type "submitted".
  const Json *Type = Frame.get("type");
  return Type && Type->isString() && Type->asString() == "result" &&
         Frame.get("ticket") != nullptr;
}

CompileOptions unit::optionsFromJson(const Json *J) {
  CompileOptions O;
  if (!J || !J->isObject())
    return O;
  // A budget outside int range is the full space, never a wrapped cap.
  int64_t Budget = J->integer("max_candidates", -1);
  if (Budget >= INT_MIN && Budget <= INT_MAX)
    O.MaxCandidates = static_cast<int>(Budget);
  return O;
}
