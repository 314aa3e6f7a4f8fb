//===- server/Protocol.h - Compile-server wire protocol -------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire format CompileServer and CompileClient speak, documented for
/// humans in docs/SERVER.md: every message is one JSON object framed by a
/// 4-byte big-endian byte-length prefix. This header provides the three
/// pieces both ends share —
///
///   - Json: a minimal self-contained JSON value (parse / dump), kept
///     dependency-free on purpose (the container bakes in no JSON lib);
///   - frame I/O over a socket fd (appendFrame / writeAll / writeFrame,
///     and FrameReader, the one reader of a socket; EINTR-safe, bounded
///     by MaxFrameBytes so a corrupt length prefix cannot OOM);
///   - schema codecs between protocol JSON and the runtime types
///     (ConvLayer, Conv3dLayer, Model, KernelReport, CompileOptions).
///
/// Targets cross the wire as string ids ("x86", "arm-sve", ...); the
/// server resolves them through the TargetRegistry, so a newly registered
/// spec is addressable with no protocol change, and clients discover the
/// live set with the list_targets message.
///
/// Beyond the blocking request/response pairs, the protocol has a
/// streaming mode: compile_async answers immediately with a
/// server-assigned ticket, and the compile's result is *pushed* later as
/// a notification frame — a "result" message carrying "ticket" instead of
/// "id" — when the job resolves, in completion order (out-of-order with
/// respect to submission is the norm). One connection can therefore keep
/// many compiles in flight. The notification builders below keep the two
/// ends agreeing on that frame shape.
///
/// Protocol evolution: ProtocolVersion is echoed in the welcome message;
/// a client talking to a newer server must tolerate unknown response
/// fields (additions bump nothing — the streaming family and the
/// welcome's "streaming" flag are such additions), while renames/removals
/// bump the version (2: the two ticket-management request types and their
/// stats counter were removed; docs/MIGRATION.md lists them).
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_SERVER_PROTOCOL_H
#define UNIT_SERVER_PROTOCOL_H

#include "graph/Graph.h"
#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "runtime/CompileOptions.h"
#include "runtime/KernelCache.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/un.h>

namespace unit {

/// Version of the message schema; echoed by the server's welcome.
constexpr int ProtocolVersion = 2;

/// Frames larger than this are rejected on read *and* write — a corrupt
/// length prefix must never turn into a multi-gigabyte allocation.
constexpr uint32_t MaxFrameBytes = 1u << 24;

/// Upper bound on any single workload dimension crossing the wire.
/// Generous for any real model (the largest paper-model extent is ~10^3)
/// but keeps a remote client from driving the compile pipeline — written
/// for trusted in-process callers, where fatal-error aborts are
/// acceptable — with astronomical extents.
constexpr int64_t MaxWorkloadDim = int64_t(1) << 20;

/// Pending compile_async tickets one connection may hold. Tickets are
/// wire-driven state, so they must be bounded — but since the session's
/// continuation engine made a pending join cost a table entry plus a
/// registered callback (not a parked pool thread), the bound is a memory
/// cap, not a thread cap: raised from 1024 to 8192 to let one connection
/// keep whole-fleet fan-in in flight. The welcome frame advertises it
/// (`max_pending_tickets`) so clients adapt instead of hardcoding; an
/// over-limit submission is an error frame, not a dropped connection.
constexpr size_t MaxPendingTicketsPerConnection = 8192;

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

/// A minimal JSON value. Objects preserve insertion order (deterministic
/// dumps, stable docs examples); member lookup is linear, which is fine at
/// protocol-message sizes.
class Json {
  friend struct JsonParser; // Builds each parsed value in its final slot.

public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Members = std::vector<std::pair<std::string, Json>>;

  Json() : K(Kind::Null) {}
  Json(bool B) : K(Kind::Bool), BoolVal(B) {}
  Json(double N) : K(Kind::Number), NumVal(N) {}
  /// One template for every integer type. Fixed-width overloads would be
  /// ambiguous for size_t on platforms where it aliases neither int64_t
  /// nor uint64_t exactly (e.g. unsigned long vs. unsigned long long).
  template <typename T,
            typename std::enable_if<std::is_integral<T>::value &&
                                        !std::is_same<T, bool>::value,
                                    int>::type = 0>
  Json(T N) : K(Kind::Number), NumVal(static_cast<double>(N)) {}
  Json(std::string S) : K(Kind::String), StrVal(std::move(S)) {}
  Json(const char *S) : K(Kind::String), StrVal(S) {}

  static Json array() { Json J; J.K = Kind::Array; return J; }
  /// An empty object with room for a protocol message's members.
  static Json object() {
    Json J;
    J.K = Kind::Object;
    J.Fields.reserve(ObjectReserve);
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return BoolVal; }
  double asNumber() const { return NumVal; }
  int64_t asInt() const { return static_cast<int64_t>(NumVal); }
  const std::string &asString() const { return StrVal; }
  const std::vector<Json> &items() const { return Items; }
  const Members &members() const { return Fields; }

  /// Array append (fatal on non-array misuse is overkill for a protocol
  /// type; misuse just grows the right representation).
  Json &push(Json Value) {
    K = Kind::Array;
    Items.push_back(std::move(Value));
    return *this;
  }

  /// Object member set; replaces an existing key in place. Linear scan —
  /// right for hand-built messages, wrong for bulk parsing (the parser
  /// appends without it).
  Json &set(std::string_view Key, Json Value);

  /// Member pointer, or nullptr when absent / not an object.
  const Json *get(std::string_view Key) const;

  // Tolerant typed accessors for optional message fields. integer()
  // yields \p Dflt for fractional or out-of-int64-range numbers too —
  // never a truncating (or UB) cast of untrusted input.
  std::string str(std::string_view Key, std::string_view Dflt = {}) const;
  double num(std::string_view Key, double Dflt = 0) const;
  int64_t integer(std::string_view Key, int64_t Dflt = 0) const;
  bool boolean(std::string_view Key, bool Dflt = false) const;

  /// Compact serialization (no whitespace). Non-finite numbers dump as 0 —
  /// they are not representable in JSON.
  std::string dump() const;

  /// Strict parse of exactly one JSON document (trailing garbage is an
  /// error). On failure returns std::nullopt and fills \p Err.
  static std::optional<Json> parse(std::string_view Text,
                                   std::string *Err = nullptr);

private:
  /// Members an object reserves when it is made: most protocol objects
  /// (a request, its options, a report, a notification) fit, so building
  /// or parsing one allocates its member list once.
  static constexpr size_t ObjectReserve = 8;

  Kind K;
  bool BoolVal = false;
  double NumVal = 0;
  std::string StrVal;
  std::vector<Json> Items;
  Members Fields;
};

//===----------------------------------------------------------------------===//
// Frame I/O
//===----------------------------------------------------------------------===//

/// The one frame encoder: appends \p Payload's length prefix and bytes to
/// \p Out. Returns false, appending nothing, when \p Payload exceeds
/// MaxFrameBytes.
bool appendFrame(std::string &Out, const std::string &Payload);

/// Writes every byte of \p Bytes to \p Fd (EINTR-safe; a vanished peer is
/// an error return, never SIGPIPE). Returns false on I/O error.
bool writeAll(int Fd, const std::string &Bytes);

/// appendFrame + writeAll: one frame in one write loop.
bool writeFrame(int Fd, const std::string &Payload);

enum class FrameStatus {
  Ok,    ///< One full frame read into the payload.
  Eof,   ///< Peer closed cleanly between frames.
  Error, ///< I/O error, oversized frame, or mid-frame close.
};

/// The one reader of a socket's frames. Each read() takes whatever the
/// kernel holds, up to ChunkBytes, so a pipelined burst costs one read
/// instead of two per frame; next() then hands the buffered frames out
/// one at a time. Every frame read on a socket must go through that
/// socket's one reader (handshake included): bytes a reader buffered are
/// invisible to any other read of the fd. Not thread-safe; one thread
/// owns a reader at a time.
class FrameReader {
public:
  /// Bytes one read() asks for, and the buffer's size unless a single
  /// larger frame needs more (never more than MaxFrameBytes + 4).
  static constexpr size_t ChunkBytes = 64 * 1024;

  explicit FrameReader(int Fd = -1) : Fd(Fd) {}

  int fd() const { return Fd; }

  /// Rebinds the reader to \p NewFd and drops everything buffered, so no
  /// byte of an old connection is ever read as part of a new one.
  void reset(int NewFd);

  /// True when next() returns without reading: a whole frame (or an
  /// oversized length prefix, which next() reports as Error) is buffered.
  bool ready() const;

  /// The next frame's payload, from the buffer or else from blocking
  /// reads (EINTR-safe). Eof only when the peer closed between frames.
  FrameStatus next(std::string &Payload);

  /// Bytes the buffer holds allocated (its memory cost).
  size_t capacity() const { return Cap; }

private:
  int Fd;
  std::unique_ptr<char[]> Buf;
  size_t Cap = 0;
  size_t Begin = 0; ///< First unconsumed byte.
  size_t End = 0;   ///< One past the last byte read.
};

//===----------------------------------------------------------------------===//
// Schema codecs
//===----------------------------------------------------------------------===//

Json toJson(const ConvLayer &L);
Json toJson(const Conv3dLayer &L);
Json toJson(const Model &M);
Json toJson(const KernelReport &R);
Json toJson(const CompileOptions &O);

/// Observability codecs (docs/OBSERVABILITY.md). A histogram snapshot
/// becomes one family object of the `metrics` reply: count, sum,
/// derived p50/p95/p99, and cumulative buckets (Prometheus `le`
/// semantics; trailing empty buckets elided, "+Inf" always present).
Json toJson(const obs::HistogramSnapshot &S);

/// A recorder snapshot as Chrome trace-event JSON — the `dump_trace`
/// reply's "trace" object and the `--trace-out` file, loadable in
/// Perfetto / chrome://tracing. Events are complete ("ph":"X") with
/// span/parent ids and the annotation string under "args".
Json chromeTraceJson(const std::vector<obs::TraceEvent> &Events);

/// Decoders are strict about shape fields (a missing dimension is an
/// error, not a silent 1) and fill \p Err with the offending field.
bool convLayerFromJson(const Json &J, ConvLayer &L, std::string &Err);
bool conv3dLayerFromJson(const Json &J, Conv3dLayer &L, std::string &Err);
bool modelFromJson(const Json &J, Model &M, std::string &Err);
bool kernelReportFromJson(const Json &J, KernelReport &R, std::string &Err);

/// Options are tolerant: a null / absent \p J yields defaults.
CompileOptions optionsFromJson(const Json *J);

/// The streaming notification frames (docs/SERVER.md "Streaming"): a
/// "result" message keyed by "ticket" (never "id" — that is how a reader
/// tells a pushed notification from the reply to a blocking compile).
/// Success carries the report + cached flag; failure carries "error".
Json makeResultNotification(uint64_t Ticket, bool Cached,
                            const KernelReport &R);
Json makeErrorNotification(uint64_t Ticket, const std::string &Message);

/// True when \p Frame is a pushed streaming notification rather than the
/// reply to a request — the one dispatch test client readers perform.
bool isNotification(const Json &Frame);

/// Strict integral field read: absent yields \p Dflt; present but
/// non-numeric, fractional, or outside the exactly-representable int64
/// range is an error (a client's 224.9 must not silently compile a
/// 224-high layer, and casting an out-of-range double is UB).
bool readIntField(const Json &Obj, const char *Key, int64_t Dflt,
                  int64_t &Out, std::string &Err);

/// Fills \p Addr for \p Path (AF_UNIX), rejecting empty or
/// sun_path-overflowing paths — shared by client connect and server
/// bind/probe so both ends accept exactly the same paths.
bool makeUnixSocketAddr(const std::string &Path, struct sockaddr_un &Addr,
                        std::string *Err);

} // namespace unit

#endif // UNIT_SERVER_PROTOCOL_H
