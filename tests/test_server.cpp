//===- tests/test_server.cpp - CompileServer / protocol tests --------------===//
//
// Covers every protocol message documented in docs/SERVER.md (hello,
// compile, compile_model, list_targets, stats, save_cache, shutdown, the
// error response, and the streaming family: compile_async / pushed
// result notifications), the cross-client single-flight
// guarantee — blocking and streaming — plus protocol robustness against
// malformed traffic, out-of-order result delivery on one pipelined
// connection, and graceful drain with tickets in flight.
//
//===----------------------------------------------------------------------===//

#include "fabric/Endpoint.h"
#include "fabric/Handshake.h"
#include "fabric/Hmac.h"
#include "models/ModelZoo.h"
#include "runtime/CompileRequest.h"
#include "runtime/CompilerSession.h"
#include "server/CompileClient.h"
#include "server/CompileServer.h"
#include "server/Protocol.h"
#include "tuner/Tuner.h"
#include "target/TargetRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace unit;

namespace {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(Json, DumpParseRoundTrip) {
  Json J = Json::object();
  J.set("str", "he\"llo\n");
  J.set("num", 42);
  J.set("frac", 1.5);
  J.set("yes", true);
  J.set("nothing", Json());
  Json Arr = Json::array();
  Arr.push(1).push("two").push(false);
  J.set("arr", std::move(Arr));
  Json Nested = Json::object();
  Nested.set("k", "v");
  J.set("obj", std::move(Nested));

  std::string Text = J.dump();
  std::optional<Json> Back = Json::parse(Text);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->str("str"), "he\"llo\n");
  EXPECT_EQ(Back->integer("num"), 42);
  EXPECT_DOUBLE_EQ(Back->num("frac"), 1.5);
  EXPECT_TRUE(Back->boolean("yes"));
  EXPECT_TRUE(Back->get("nothing")->isNull());
  ASSERT_TRUE(Back->get("arr")->isArray());
  EXPECT_EQ(Back->get("arr")->items().size(), 3u);
  EXPECT_EQ(Back->get("obj")->str("k"), "v");
  // Dump is deterministic (insertion-ordered objects).
  EXPECT_EQ(Back->dump(), Text);
}

TEST(Json, ParseRejectsGarbage) {
  std::string Err;
  EXPECT_FALSE(Json::parse("{", &Err).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &Err).has_value());
  EXPECT_FALSE(Json::parse("\"unterminated", &Err).has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}", &Err).has_value());
  EXPECT_FALSE(Json::parse("nul", &Err).has_value());
  EXPECT_FALSE(Json::parse("", &Err).has_value());
  // Depth bomb parses without stack overflow and reports an error.
  std::string Deep(1000, '[');
  EXPECT_FALSE(Json::parse(Deep, &Err).has_value());
}

TEST(Json, EscapesRoundTrip) {
  std::optional<Json> J = Json::parse("\"a\\u0041\\t\\\\b\"");
  ASSERT_TRUE(J.has_value());
  EXPECT_EQ(J->asString(), "aA\t\\b");
}

/// The encoder's exact bytes, pinned: clients and peers of other builds
/// parse these, so a codec change must leave every byte where it was.
TEST(Json, WireBytesMatchThePinnedEncoding) {
  ConvLayer L;
  L.Name = "res2a\"branch\\1\t";
  L.InC = 64;
  L.InH = L.InW = 56;
  L.OutC = 256;
  L.KH = L.KW = 3;
  L.Stride = 2;
  L.PadH = 1;
  L.PadW = 0;
  const std::string Conv =
      R"({"kind":"conv2d","name":"res2a\"branch\\1\t","in_c":64,"in_h":56,)"
      R"("in_w":56,"out_c":256,"k_h":3,"k_w":3,"stride":2,"pad_h":1,)"
      R"("pad_w":0})";
  EXPECT_EQ(toJson(L).dump(), Conv);
  ConvLayer Dw = L;
  Dw.Name = "dw";
  Dw.Depthwise = true;
  EXPECT_EQ(toJson(Dw).dump(),
            R"({"kind":"conv2d","name":"dw","in_c":64,"in_h":56,"in_w":56,)"
            R"("out_c":256,"k_h":3,"k_w":3,"stride":2,"pad_h":1,"pad_w":0,)"
            R"("depthwise":true})");

  const std::string Defaults = R"({"max_candidates":-1})";
  EXPECT_EQ(toJson(CompileOptions{}).dump(), Defaults);
  CompileOptions O;
  O.MaxCandidates = 16;
  EXPECT_EQ(toJson(O).dump(), R"({"max_candidates":16})");

  KernelReport R;
  R.Seconds = 1.2345678901234567e-05;
  R.Tensorized = true;
  R.BestCandidateIndex = 41;
  R.CandidatesTried = 1024;
  R.IntrinsicName = "vpdpbusd";
  EXPECT_EQ(makeResultNotification(9007199254740991ull, true, R).dump(),
            R"({"type":"result","ticket":9007199254740991,"cached":true,)"
            R"("report":{"seconds":1.2345678901234568e-05,"tensorized":true,)"
            R"("best_candidate_index":41,"candidates_tried":1024,)"
            R"("intrinsic":"vpdpbusd"}})");
  KernelReport Fallback;
  Fallback.Seconds = 0.25;
  EXPECT_EQ(makeResultNotification(3, false, Fallback).dump(),
            R"({"type":"result","ticket":3,"cached":false,"report":)"
            R"({"seconds":0.25,"tensorized":false,)"
            R"("best_candidate_index":-1,"candidates_tried":0,)"
            R"("intrinsic":""}})");

  Json Msg = Json::object();
  Msg.set("type", "compile_async");
  Msg.set("id", 17);
  Msg.set("target", "x86");
  Msg.set("workload", toJson(L));
  Msg.set("options", toJson(CompileOptions{}));
  EXPECT_EQ(Msg.dump(), R"({"type":"compile_async","id":17,"target":"x86",)"
                        R"("workload":)" + Conv +
                            R"(,"options":)" + Defaults + "}");

  const std::pair<double, const char *> Numbers[] = {
      {0.0, "0"},
      {-0.0, "0"},
      {-7.0, "-7"},
      {9007199254740992.0, "9007199254740992"}, // 2^53
      {1e15 - 1, "999999999999999"},
      {1e15, "1e+15"},
      {0.1, "0.1"},
  };
  for (const auto &[N, Text] : Numbers)
    EXPECT_EQ(Json(N).dump(), Text) << N;
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(int64_t(-999999999999999)).dump(), "-999999999999999");
  EXPECT_EQ(Json(std::nan("")).dump(), "0");

  EXPECT_EQ(Json("\x01" "a\x1f\b\f\r\n\"\\/ caf\xc3\xa9 \xff").dump(),
            "\"\\u0001a\\u001f\\b\\f\\r\\n\\\"\\\\/ caf\xc3\xa9 \xff\"");
  Json Arr = Json::array();
  Arr.push(1).push("two").push(false).push(Json()).push(Json::object());
  Arr.push(Json::array());
  EXPECT_EQ(Arr.dump(), R"([1,"two",false,null,{},[]])");
}

TEST(Json, ParseEscapesAtStringEdgesAndHighBytes) {
  auto Parsed = [](const std::string &Text) {
    std::optional<Json> J = Json::parse(Text);
    return J && J->isString() ? J->asString() : std::string("<error>");
  };
  EXPECT_EQ(Parsed(R"("\nstart")"), "\nstart");
  EXPECT_EQ(Parsed(R"("end\t")"), "end\t");
  EXPECT_EQ(Parsed(R"("\"")"), "\"");
  EXPECT_EQ(Parsed(R"("\\\"")"), "\\\"");       // Two escapes in a row.
  EXPECT_EQ(Parsed(R"("a\\\\b")"), "a\\\\b");    // Two escaped backslashes.
  EXPECT_EQ(Parsed(R"("é\/\b\f\r")"), "\xc3\xa9/\b\f\r");
  EXPECT_EQ(Parsed(R"("")"), "");
  // Bytes >= 0x80 pass through untouched, alone or beside escapes.
  EXPECT_EQ(Parsed("\"caf\xc3\xa9\""), "caf\xc3\xa9");
  EXPECT_EQ(Parsed("\"\xff\\n\x80\""), "\xff\n\x80");
  // A high byte never ends a run early or starts an escape.
  std::string High = "\"";
  for (int B = 0x80; B <= 0xff; ++B)
    High += static_cast<char>(B);
  High += "\"";
  ASSERT_EQ(Parsed(High).size(), 128u);
  EXPECT_EQ(Json(Parsed(High)).dump(), High);
  // Escapes still fail the same way at either edge.
  EXPECT_FALSE(Json::parse(R"("\q")").has_value());
  EXPECT_FALSE(Json::parse(R"("trailing\)").has_value());
  EXPECT_FALSE(Json::parse(R"("\u12")").has_value());
  // Keys go through the same string parser.
  std::optional<Json> Obj = Json::parse(R"({"\tkA":1,"plain":"\\"})");
  ASSERT_TRUE(Obj.has_value());
  EXPECT_EQ(Obj->integer("\tkA"), 1);
  EXPECT_EQ(Obj->str("plain"), "\\");
}

TEST(Json, StringViewKeysGetAndSetInPlace) {
  Json J = Json::object();
  std::string Owned = "alpha";
  std::string_view Sliced = std::string_view("beta-gamma").substr(0, 4);
  J.set(Owned, 1);
  J.set(Sliced, "two");
  J.set("gamma", true);
  EXPECT_EQ(J.dump(), R"({"alpha":1,"beta":"two","gamma":true})");
  // A key compares by content, whatever type spells it.
  ASSERT_NE(J.get(std::string_view("beta")), nullptr);
  EXPECT_EQ(J.get(std::string("beta"))->asString(), "two");
  EXPECT_EQ(J.str(Sliced), "two");
  EXPECT_EQ(J.integer(std::string_view("alphabet").substr(0, 5)), 1);
  EXPECT_EQ(J.get("bet"), nullptr);
  EXPECT_EQ(J.get(std::string_view("beta\0", 5)), nullptr);
  // Replacing a key keeps its position; a new key appends.
  J.set(std::string_view("alpha"), "replaced");
  J.set(std::string("delta"), 4.5);
  EXPECT_EQ(J.dump(),
            R"({"alpha":"replaced","beta":"two","gamma":true,"delta":4.5})");
  EXPECT_EQ(J.members().size(), 4u);
  // Defaults for absent or mistyped fields, as before.
  EXPECT_EQ(J.str("missing", "dflt"), "dflt");
  EXPECT_EQ(J.str("gamma"), "");
  EXPECT_EQ(J.num("alpha", 2.5), 2.5);
  EXPECT_EQ(J.integer("delta", -1), -1); // Fractional: the default.
  EXPECT_TRUE(J.boolean("gamma"));
  EXPECT_FALSE(J.boolean("alpha"));
  // Lookups on non-objects find nothing.
  EXPECT_EQ(Json::array().get("alpha"), nullptr);
  EXPECT_EQ(Json(3).str("alpha", "d"), "d");
}

TEST(Json, ObjectsPastTheMemberReserveKeepEveryMemberInOrder) {
  // Twenty members, more than an object reserves, nested in an array
  // and an object so every kind of slot regrows under a parsed value.
  std::string Text = "{";
  for (int I = 0; I < 20; ++I)
    Text += (I ? ",\"k" : "\"k") + std::to_string(I) + "\":" +
            std::to_string(I * 3);
  Text += "}";
  const std::string Outer = R"({"list":[)" + Text + "," + Text +
                            R"(],"obj":)" + Text + R"(,"tail":"end"})";
  std::optional<Json> J = Json::parse(Outer);
  ASSERT_TRUE(J.has_value());
  EXPECT_EQ(J->dump(), Outer);
  const Json *Obj = J->get("obj");
  ASSERT_NE(Obj, nullptr);
  ASSERT_EQ(Obj->members().size(), 20u);
  for (int I = 0; I < 20; ++I) {
    EXPECT_EQ(Obj->members()[I].first, "k" + std::to_string(I));
    EXPECT_EQ(Obj->integer("k" + std::to_string(I)), I * 3);
  }
  ASSERT_EQ(J->get("list")->items().size(), 2u);
  EXPECT_EQ(J->get("list")->items()[1].integer("k19"), 57);
  EXPECT_EQ(J->str("tail"), "end");
}

TEST(Json, DuplicateKeysResolveToTheFirst) {
  std::optional<Json> J =
      Json::parse(R"({"a":1,"b":{"x":"first","x":"second"},"a":2})");
  ASSERT_TRUE(J.has_value());
  EXPECT_EQ(J->integer("a"), 1);
  EXPECT_EQ(J->get("b")->str("x"), "first");
  // Both occurrences are kept, in order, and dump back as they came.
  EXPECT_EQ(J->members().size(), 3u);
  EXPECT_EQ(J->dump(), R"({"a":1,"b":{"x":"first","x":"second"},"a":2})");
}

/// A failure deep inside an object or array fails the whole parse with
/// the first error, worded as it always was.
TEST(Json, FailureMidObjectOrArrayReturnsTheFirstError) {
  const std::pair<const char *, const char *> Cases[] = {
      {R"({"a":1,"b":[1,2,}})", "expected value"},
      {R"({"a":{"b":tru}})", "expected 'true'"},
      {R"({"a":fals})", "expected 'false'"},
      {R"({"a":[1,{"b":nul}]})", "expected 'null'"},
      {R"([1,{"k" 2}])", "expected ':'"},
      {R"({"a":[1,2})", "expected ',' or ']'"},
      {R"([{"a":1])", "expected ',' or '}'"},
      {R"({"a":1,)", "expected string"},
      {R"({"a":1, 2})", "expected string"},
      {R"({"a":[1,2)", "unterminated array"},
      {R"([{"a":1)", "unterminated object"},
      {R"({"a":"x)", "unterminated string"},
      {R"({"a":{"b":"\q"}})", "bad escape"},
      {R"([1,-])", "expected value"},
      {R"([[1],[2,[3,]]])", "expected value"},
      {R"({"a":[)", "unexpected end of input"},
      {R"({"a":1}})", "trailing garbage after JSON value"},
  };
  for (const auto &[Text, Want] : Cases) {
    std::string Err;
    EXPECT_FALSE(Json::parse(Text, &Err).has_value()) << Text;
    EXPECT_EQ(Err, Want) << Text;
  }
}

TEST(Json, NestingDepthIsBoundedAtSixtyFour) {
  auto Arrays = [](int Depth) {
    return std::string(Depth, '[') + "1" + std::string(Depth, ']');
  };
  auto Objects = [](int Depth) {
    std::string Text;
    for (int I = 0; I < Depth; ++I)
      Text += R"({"a":)";
    return Text + "1" + std::string(Depth, '}');
  };
  for (const std::string &Ok : {Arrays(64), Objects(64)}) {
    std::optional<Json> J = Json::parse(Ok);
    ASSERT_TRUE(J.has_value());
    EXPECT_EQ(J->dump(), Ok);
  }
  for (const std::string &Deep : {Arrays(65), Objects(65)}) {
    std::string Err;
    EXPECT_FALSE(Json::parse(Deep, &Err).has_value());
    EXPECT_EQ(Err, "nesting too deep");
  }
}

/// The payloads Json.WireBytesMatchThePinnedEncoding pins, from the same
/// encoders and inputs.
std::vector<std::string> pinnedPayloads() {
  ConvLayer L;
  L.Name = "res2a\"branch\\1\t";
  L.InC = 64;
  L.InH = L.InW = 56;
  L.OutC = 256;
  L.KH = L.KW = 3;
  L.Stride = 2;
  L.PadH = 1;
  L.PadW = 0;
  ConvLayer Dw = L;
  Dw.Name = "dw";
  Dw.Depthwise = true;
  CompileOptions O;
  O.MaxCandidates = 16;
  KernelReport R;
  R.Seconds = 1.2345678901234567e-05;
  R.Tensorized = true;
  R.BestCandidateIndex = 41;
  R.CandidatesTried = 1024;
  R.IntrinsicName = "vpdpbusd";
  KernelReport Fallback;
  Fallback.Seconds = 0.25;
  Json Msg = Json::object();
  Msg.set("type", "compile_async");
  Msg.set("id", 17);
  Msg.set("target", "x86");
  Msg.set("workload", toJson(L));
  Msg.set("options", toJson(CompileOptions{}));
  return {toJson(L).dump(),
          toJson(Dw).dump(),
          toJson(CompileOptions{}).dump(),
          toJson(O).dump(),
          makeResultNotification(9007199254740991ull, true, R).dump(),
          makeResultNotification(3, false, Fallback).dump(),
          Msg.dump()};
}

/// Every frame a FrameReader hands out of \p Bytes (written, then the
/// writer closed), and how the reading ended.
std::vector<std::string> readAllFrames(const std::string &Bytes,
                                       FrameStatus &Last) {
  int Fds[2];
  std::vector<std::string> Frames;
  Last = FrameStatus::Error;
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
    return Frames;
  bool Written = writeAll(Fds[0], Bytes);
  ::close(Fds[0]);
  FrameReader Reader(Fds[1]);
  std::string Payload;
  while (Written && (Last = Reader.next(Payload)) == FrameStatus::Ok)
    Frames.push_back(Payload);
  ::close(Fds[1]);
  return Frames;
}

/// A parse either fails with an error or yields a value whose dump
/// parses back to the same dump.
void expectCleanParse(const std::string &Text) {
  std::string Err;
  std::optional<Json> J = Json::parse(Text, &Err);
  if (!J) {
    EXPECT_FALSE(Err.empty()) << Text;
    return;
  }
  std::optional<Json> Again = Json::parse(J->dump());
  ASSERT_TRUE(Again.has_value()) << Text;
  EXPECT_EQ(Again->dump(), J->dump()) << Text;
}

/// Deterministic mutations of the pinned frames through FrameReader and
/// Json::parse: every truncation and every single-bit flip of every byte
/// (length prefix included) must parse or fail cleanly — no crash, hang
/// or sanitizer report.
TEST(Json, EveryTruncationAndByteFlipOfThePinnedFramesFailsCleanly) {
  size_t Mutations = 0;
  for (const std::string &Payload : pinnedPayloads()) {
    std::string Frame;
    ASSERT_TRUE(appendFrame(Frame, Payload));
    FrameStatus Last;
    // Truncated: the reader reports the cut frame as an error (or, cut
    // before any byte, a clean EOF), and no prefix of a payload parses.
    for (size_t Len = 0; Len < Frame.size(); ++Len, ++Mutations) {
      EXPECT_TRUE(readAllFrames(Frame.substr(0, Len), Last).empty());
      EXPECT_EQ(Last, Len == 0 ? FrameStatus::Eof : FrameStatus::Error);
      if (Len >= 4) {
        std::string Err;
        EXPECT_FALSE(Json::parse(Payload.substr(0, Len - 4), &Err));
        EXPECT_FALSE(Err.empty());
      }
    }
    for (size_t At = 0; At < Frame.size(); ++At)
      for (int Bit = 0; Bit < 8; ++Bit, ++Mutations) {
        std::string Flipped = Frame;
        Flipped[At] = static_cast<char>(Flipped[At] ^ (1 << Bit));
        for (const std::string &Got : readAllFrames(Flipped, Last))
          expectCleanParse(Got);
        if (At >= 4)
          expectCleanParse(Flipped.substr(4));
      }
  }
  EXPECT_EQ(Mutations, 9u * 906u); // Nine per byte of the seven frames.
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

TEST(FrameReader, RoundTripOverSocketpair) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  EXPECT_TRUE(writeFrame(Fds[0], "{\"type\":\"hello\"}"));
  EXPECT_TRUE(writeFrame(Fds[0], "")); // Empty payload frames fine.
  FrameReader Reader(Fds[1]);
  std::string Payload;
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "{\"type\":\"hello\"}");
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "");
  ::close(Fds[0]);
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Eof);
  ::close(Fds[1]);
}

TEST(FrameReader, OversizedLengthPrefixIsError) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const char Huge[4] = {0x7f, 0x00, 0x00, 0x00}; // ~2 GB claimed.
  ASSERT_EQ(::write(Fds[0], Huge, 4), 4);
  FrameReader Reader(Fds[1]);
  std::string Payload;
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Error);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(FrameReader, MidFrameEofIsError) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const char Partial[6] = {0x00, 0x00, 0x00, 0x08, 'a', 'b'}; // Claims 8.
  ASSERT_EQ(::write(Fds[0], Partial, 6), 6);
  ::close(Fds[0]);
  FrameReader Reader(Fds[1]);
  std::string Payload;
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Error);
  ::close(Fds[1]);
}

TEST(FrameReader, SeveralFramesArriveInOneRead) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::vector<std::string> Sent = {"{\"a\":1}", "", "[2,3]",
                                   std::string(1000, 'x')};
  std::string Burst;
  for (const std::string &P : Sent)
    ASSERT_TRUE(appendFrame(Burst, P));
  ASSERT_TRUE(writeAll(Fds[0], Burst)); // One write, well under a chunk.
  ::close(Fds[0]);
  FrameReader Reader(Fds[1]);
  EXPECT_FALSE(Reader.ready()); // Nothing read yet.
  std::string Payload;
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, Sent[0]);
  // The first read took the whole burst: the rest comes from the buffer.
  for (size_t I = 1; I < Sent.size(); ++I) {
    EXPECT_TRUE(Reader.ready()) << I;
    ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
    EXPECT_EQ(Payload, Sent[I]);
  }
  EXPECT_FALSE(Reader.ready());
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Eof);
  ::close(Fds[1]);
}

TEST(FrameReader, PartialFrameCompletesAcrossByteReads) {
  // A whole frame plus the first byte of the next arrive together; the
  // rest of the second frame then comes one byte per write. The buffered
  // byte must carry over into the reads that complete the frame.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string First, Second;
  ASSERT_TRUE(appendFrame(First, "{\"first\":true}"));
  ASSERT_TRUE(appendFrame(Second, "{\"second\":\"dribbled\"}"));
  ASSERT_TRUE(writeAll(Fds[0], First + Second.substr(0, 1)));
  FrameReader Reader(Fds[1]);
  std::string Payload;
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "{\"first\":true}");
  EXPECT_FALSE(Reader.ready()); // One byte of a header is not a frame.
  std::thread Dribbler([&] {
    for (size_t I = 1; I < Second.size(); ++I) {
      ASSERT_EQ(::write(Fds[0], &Second[I], 1), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "{\"second\":\"dribbled\"}");
  Dribbler.join();
  ::close(Fds[0]);
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Eof);
  ::close(Fds[1]);
}

TEST(FrameReader, OversizedPrefixDoesNotGrowTheBuffer) {
  // A prefix one byte over the limit, followed by a chunk of bytes that
  // could pass for its payload: Error, with the buffer never sized for
  // the claimed frame.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  uint32_t Len = MaxFrameBytes + 1;
  std::string Bytes = {static_cast<char>(Len >> 24),
                       static_cast<char>(Len >> 16),
                       static_cast<char>(Len >> 8), static_cast<char>(Len)};
  Bytes += std::string(FrameReader::ChunkBytes, 'z');
  std::thread Writer([&] { writeAll(Fds[0], Bytes); });
  FrameReader Reader(Fds[1]);
  std::string Payload;
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Error);
  EXPECT_TRUE(Reader.ready()); // The bad prefix stays: no read can fix it.
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Error);
  EXPECT_LE(Reader.capacity(), size_t(MaxFrameBytes) + 4);
  EXPECT_LE(Reader.capacity(), FrameReader::ChunkBytes);
  ::shutdown(Fds[1], SHUT_RDWR); // Unblocks the writer.
  Writer.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(FrameReader, ResetDropsTheOldConnectionsBytes) {
  int Old[2], New[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Old), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, New), 0);
  std::string Burst;
  ASSERT_TRUE(appendFrame(Burst, "old-1"));
  ASSERT_TRUE(appendFrame(Burst, "old-2"));
  ASSERT_TRUE(writeAll(Old[0], Burst));
  ASSERT_TRUE(writeFrame(New[0], "new-1"));
  FrameReader Reader(Old[1]);
  std::string Payload;
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "old-1");
  EXPECT_TRUE(Reader.ready());
  Reader.reset(New[1]);
  EXPECT_FALSE(Reader.ready());
  EXPECT_EQ(Reader.fd(), New[1]);
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "new-1");
  for (int Fd : {Old[0], Old[1], New[0], New[1]})
    ::close(Fd);
}

//===----------------------------------------------------------------------===//
// Schema codecs
//===----------------------------------------------------------------------===//

TEST(Codecs, ConvLayerRoundTrip) {
  ConvLayer L;
  L.Name = "conv1";
  L.InC = 3; L.InH = 224; L.InW = 224;
  L.OutC = 64; L.KH = 7; L.KW = 7;
  L.Stride = 2; L.PadH = 3; L.PadW = 3;
  ConvLayer Back;
  std::string Err;
  ASSERT_TRUE(convLayerFromJson(toJson(L), Back, Err)) << Err;
  EXPECT_EQ(Back.shapeKey(), L.shapeKey());
  EXPECT_EQ(Back.Name, "conv1");
}

TEST(Codecs, ModelRoundTripPreservesEveryLayer) {
  Model M = makeResnet18();
  Model Back;
  std::string Err;
  ASSERT_TRUE(modelFromJson(toJson(M), Back, Err)) << Err;
  ASSERT_EQ(Back.Convs.size(), M.Convs.size());
  for (size_t I = 0; I < M.Convs.size(); ++I)
    EXPECT_EQ(Back.Convs[I].shapeKey(), M.Convs[I].shapeKey());
  EXPECT_EQ(Back.Name, M.Name);
  EXPECT_DOUBLE_EQ(Back.ElementwiseBytes, M.ElementwiseBytes);
  EXPECT_EQ(Back.GlueOps, M.GlueOps);
}

TEST(Codecs, MissingDimensionIsAnError) {
  Json J = Json::object();
  J.set("kind", "conv2d");
  J.set("name", "bad");
  J.set("in_c", 3); // Everything else missing.
  ConvLayer L;
  std::string Err;
  EXPECT_FALSE(convLayerFromJson(J, L, Err));
  EXPECT_NE(Err.find("in_h"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Server fixture
//===----------------------------------------------------------------------===//

/// One server on a private session and a temp socket per test.
class ServerTest : public ::testing::Test {
protected:
  std::string SocketPath;
  std::unique_ptr<CompileServer> Server;
  /// Every path tempPath handed out; TearDown removes them.
  std::vector<std::string> TempPaths;

  std::string tempPath(const char *Suffix) {
    static std::atomic<int> Counter{0};
    TempPaths.push_back("/tmp/unit_test_" + std::to_string(::getpid()) + "_" +
                        std::to_string(Counter.fetch_add(1)) + Suffix);
    return TempPaths.back();
  }

  void startServer(ServerConfig Config = {}) {
    SocketPath = tempPath(".sock");
    Config.SocketPath = SocketPath;
    Server = std::make_unique<CompileServer>(std::move(Config));
    std::string Err;
    ASSERT_TRUE(Server->start(&Err)) << Err;
  }

  /// Stops the fixture's server, then removes every temp path and the
  /// `.lock` file a server keeps beside its socket. A test's other
  /// servers are locals, already stopped by their destructors.
  void TearDown() override {
    if (Server)
      Server->stop();
    for (const std::string &Path : TempPaths) {
      ::unlink(Path.c_str());
      ::unlink((Path + ".lock").c_str());
    }
  }

  /// A connected, hello'd client.
  std::unique_ptr<CompileClient> makeClient(const std::string &Name,
                                            int Budget = 0) {
    auto Client = std::make_unique<CompileClient>();
    std::string Err;
    EXPECT_TRUE(Client->connect(SocketPath, &Err)) << Err;
    EXPECT_TRUE(Client->hello(Name, Budget, &Err).has_value()) << Err;
    return Client;
  }
};

TEST_F(ServerTest, HelloReturnsWelcome) {
  startServer();
  CompileClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;
  std::optional<Json> Welcome = Client.hello("tester", 0, &Err);
  ASSERT_TRUE(Welcome.has_value()) << Err;
  EXPECT_EQ(Welcome->str("type"), "welcome");
  EXPECT_EQ(Welcome->str("server"), "unit_serve");
  EXPECT_EQ(Welcome->integer("protocol"), ProtocolVersion);
  EXPECT_EQ(Welcome->str("fingerprint"),
            CompilerSession::persistenceFingerprint());
  // The ticket budget is advertised so clients adapt to it instead of
  // hardcoding the bound.
  EXPECT_EQ(Welcome->integer("max_pending_tickets"),
            static_cast<int64_t>(MaxPendingTicketsPerConnection));
}

TEST_F(ServerTest, ListTargetsAdvertisesTheRegistry) {
  startServer();
  auto Client = makeClient("lister");
  std::string Err;
  std::optional<std::vector<CompileClient::TargetInfo>> Targets =
      Client->listTargets(&Err);
  ASSERT_TRUE(Targets.has_value()) << Err;

  // The response mirrors the process-wide registry exactly: every
  // registered backend, with its spec hash and conv3d capability.
  std::vector<TargetBackendRef> All = TargetRegistry::instance().all();
  ASSERT_EQ(Targets->size(), All.size());
  std::set<std::string> Ids;
  for (const CompileClient::TargetInfo &T : *Targets)
    Ids.insert(T.Id);
  for (const char *Expected : {"x86", "arm", "nvgpu", "x86-amx", "arm-sve"})
    EXPECT_EQ(Ids.count(Expected), 1u) << Expected;
  for (const CompileClient::TargetInfo &T : *Targets) {
    TargetBackendRef B = TargetRegistry::instance().get(T.Id);
    EXPECT_EQ(T.SpecHash, B->specHash());
    EXPECT_EQ(T.SupportsConv3d, B->supportsConv3d());
    EXPECT_FALSE(T.Intrinsics.empty());
  }
  // Every advertised target actually compiles over this connection.
  ConvLayer L{"probe", 64, 14, 14, 64, 1, 1, 1, 0, 0, false};
  for (const CompileClient::TargetInfo &T : *Targets) {
    std::optional<CompileClient::CompileResult> R =
        Client->compileConv(T.Id, L, {}, &Err);
    EXPECT_TRUE(R.has_value()) << T.Id << ": " << Err;
  }
}

TEST_F(ServerTest, CompileConvColdThenCached) {
  startServer();
  auto Client = makeClient("c");
  ConvLayer L = makeResnet18().Convs[3];
  std::string Err;
  std::optional<CompileClient::CompileResult> Cold =
      Client->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Cold.has_value()) << Err;
  EXPECT_FALSE(Cold->Cached);
  EXPECT_GT(Cold->Report.Seconds, 0.0);
  EXPECT_TRUE(Cold->Report.Tensorized);

  std::optional<CompileClient::CompileResult> Warm =
      Client->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Warm.has_value()) << Err;
  EXPECT_TRUE(Warm->Cached);
  EXPECT_EQ(Warm->Report.Seconds, Cold->Report.Seconds);
  EXPECT_EQ(Warm->Report.IntrinsicName, Cold->Report.IntrinsicName);
}

TEST_F(ServerTest, RemoteReportsMatchLocalSession) {
  startServer();
  auto Client = makeClient("remote");
  Model M = makeResnet18();
  std::string Err;
  std::optional<CompileClient::ModelResult> Remote =
      Client->compileModel("x86", M, {}, &Err);
  ASSERT_TRUE(Remote.has_value()) << Err;
  ASSERT_EQ(Remote->Layers.size(), M.Convs.size());

  CompilerSession Local;
  ModelCompileResult Expected = Local.compileModel(M, "x86");
  for (size_t I = 0; I < M.Convs.size(); ++I) {
    EXPECT_EQ(Remote->Layers[I].Seconds, Expected.Layers[I].Seconds);
    EXPECT_EQ(Remote->Layers[I].Tensorized, Expected.Layers[I].Tensorized);
    EXPECT_EQ(Remote->Layers[I].BestCandidateIndex,
              Expected.Layers[I].BestCandidateIndex);
    EXPECT_EQ(Remote->Layers[I].IntrinsicName,
              Expected.Layers[I].IntrinsicName);
  }
  EXPECT_EQ(Remote->DistinctShapes, Expected.DistinctShapes);
}

TEST_F(ServerTest, DenseSharesTheConv2dCacheEntry) {
  startServer();
  auto Client = makeClient("dense");
  std::string Err;
  // The client has no dense helper; the server decodes kind "dense".
  Json Work = Json::object();
  Work.set("kind", "dense");
  Work.set("name", "fc");
  Work.set("in", 512);
  Work.set("out", 1000);
  Json Request = Json::object();
  Request.set("type", "compile");
  Request.set("target", "x86");
  Request.set("workload", std::move(Work));
  std::optional<Json> Dense = Client->request(Request, &Err);
  ASSERT_TRUE(Dense.has_value()) << Err;
  ASSERT_EQ(Dense->str("type"), "result") << Dense->dump();
  EXPECT_FALSE(Dense->boolean("cached", true));
  const Json *DenseReportJson = Dense->get("report");
  ASSERT_NE(DenseReportJson, nullptr);
  KernelReport DenseReport;
  ASSERT_TRUE(kernelReportFromJson(*DenseReportJson, DenseReport, Err)) << Err;

  // The dense layer *is* a 1x1 conv on a 1x1 image — compiling that conv
  // explicitly must be a pure cache hit.
  ConvLayer AsConv;
  AsConv.Name = "fc_as_conv";
  AsConv.InC = 512;
  AsConv.OutC = 1000;
  std::optional<CompileClient::CompileResult> Conv =
      Client->compileConv("x86", AsConv, {}, &Err);
  ASSERT_TRUE(Conv.has_value()) << Err;
  EXPECT_TRUE(Conv->Cached);
  EXPECT_EQ(Conv->Report.Seconds, DenseReport.Seconds);
}

TEST_F(ServerTest, Conv3dCompilesOnCpuAndIsRejectedOnGpu) {
  startServer();
  auto Client = makeClient("c3d");
  // The client has no conv3d helper; the server decodes kind "conv3d".
  Json Request = Json::object();
  Request.set("type", "compile");
  Request.set("target", "x86");
  Request.set("workload", toJson(makeResnet18Conv3d()[2]));
  std::string Err;
  std::optional<Json> R = Client->request(Request, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  ASSERT_EQ(R->str("type"), "result") << R->dump();
  KernelReport Report;
  ASSERT_NE(R->get("report"), nullptr);
  ASSERT_TRUE(kernelReportFromJson(*R->get("report"), Report, Err)) << Err;
  EXPECT_GT(Report.Seconds, 0.0);

  Request.set("target", "nvgpu");
  R = Client->request(Request, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");
  EXPECT_NE(R->str("message").find("conv3d"), std::string::npos)
      << R->dump();
}

/// The acceptance criterion: two concurrently connected clients compiling
/// isomorphic models share tuned kernels — the tuner runs exactly once
/// per distinct structural key across *both* clients.
TEST_F(ServerTest, TwoClientsCompilingIsomorphicModelsSingleFlight) {
  startServer();

  Model A = makeResnet18();
  Model B = makeResnet18();
  B.Name = "resnet-18-renamed";
  for (ConvLayer &L : B.Convs)
    L.Name = "clone_" + L.Name; // Renames never enter structural keys.

  // Expected tuner work: the distinct canonical keys across both models
  // (identical for A and B, since they are isomorphic layer by layer).
  TargetBackendRef Backend = TargetRegistry::instance().get("x86");
  std::set<std::string> DistinctKeys;
  for (const Model *M : {&A, &B})
    for (const ConvLayer &L : M->Convs)
      DistinctKeys.insert(
          CompileRequest(Workload::conv2d(L), Backend).cacheKey());

  uint64_t TunesBefore = tunerInvocations();
  std::optional<CompileClient::ModelResult> ResultA, ResultB;
  std::string ErrA, ErrB;
  std::thread ClientA([&] {
    CompileClient Client;
    if (Client.connect(SocketPath, &ErrA) &&
        Client.hello("client-a", 0, &ErrA))
      ResultA = Client.compileModel("x86", A, {}, &ErrA);
  });
  std::thread ClientB([&] {
    CompileClient Client;
    if (Client.connect(SocketPath, &ErrB) &&
        Client.hello("client-b", 0, &ErrB))
      ResultB = Client.compileModel("x86", B, {}, &ErrB);
  });
  ClientA.join();
  ClientB.join();

  ASSERT_TRUE(ResultA.has_value()) << ErrA;
  ASSERT_TRUE(ResultB.has_value()) << ErrB;

  // Single-flight across clients: one tuner invocation per distinct
  // structural key, no matter how the two submissions interleaved.
  EXPECT_EQ(tunerInvocations() - TunesBefore, DistinctKeys.size());
  EXPECT_EQ(Server->session().cache().size(), DistinctKeys.size());

  // Isomorphic layers got byte-identical reports on both clients.
  ASSERT_EQ(ResultA->Layers.size(), ResultB->Layers.size());
  for (size_t I = 0; I < ResultA->Layers.size(); ++I) {
    EXPECT_EQ(ResultA->Layers[I].Seconds, ResultB->Layers[I].Seconds);
    EXPECT_EQ(ResultA->Layers[I].IntrinsicName,
              ResultB->Layers[I].IntrinsicName);
  }
}

TEST_F(ServerTest, RacingCompilesOfOneLayerAccountOneCompiledLayer) {
  startServer();
  ConvLayer L = makeResnet18().Convs[9];
  uint64_t TunesBefore = tunerInvocations();
  std::optional<CompileClient::CompileResult> R1, R2;
  std::string E1, E2;
  std::thread A([&] {
    CompileClient C;
    if (C.connect(SocketPath, &E1) && C.hello("race-a", 0, &E1))
      R1 = C.compileConv("x86", L, {}, &E1);
  });
  std::thread B([&] {
    CompileClient C;
    if (C.connect(SocketPath, &E2) && C.hello("race-b", 0, &E2))
      R2 = C.compileConv("x86", L, {}, &E2);
  });
  A.join();
  B.join();
  ASSERT_TRUE(R1.has_value()) << E1;
  ASSERT_TRUE(R2.has_value()) << E2;
  EXPECT_EQ(R1->Report.Seconds, R2->Report.Seconds);
  // One tuner run, one compiled layer — the loser of the cache race is a
  // single-flight joiner (cached), never a second compile. The flags are
  // exact (derived from who actually compiled, not a cache probe).
  EXPECT_EQ(tunerInvocations() - TunesBefore, 1u);
  EXPECT_EQ(Server->totals().CompiledKernels, 1u);
  EXPECT_TRUE(R1->Cached != R2->Cached);
}

TEST_F(ServerTest, SecondServerOnALiveSocketRefusesToStart) {
  startServer();
  ServerConfig Config;
  Config.SocketPath = SocketPath; // Same path, server alive.
  CompileServer Second(std::move(Config));
  std::string Err;
  EXPECT_FALSE(Second.start(&Err));
  // The flock claim fails first; the connect-probe message appears only
  // if a stale lock slipped through. Either way the path is refused.
  EXPECT_TRUE(Err.find("another server owns") != std::string::npos ||
              Err.find("already listening") != std::string::npos)
      << Err;
  // The first server is untouched.
  auto Client = makeClient("still-works");
  EXPECT_TRUE(Client->stats(false, &Err).has_value()) << Err;
}

TEST_F(ServerTest, PerClientBudgetClampsTheSearch) {
  startServer();
  ConvLayer L = makeResnet18().Convs[5];

  // Budget declared at hello time applies to every request of the client.
  auto Capped = makeClient("capped", /*Budget=*/3);
  std::string Err;
  std::optional<CompileClient::CompileResult> R =
      Capped->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_LE(R->Report.CandidatesTried, 3);

  // An uncapped client searches the full space — and caches separately
  // (a budgeted report must not shadow the full-search one).
  auto Full = makeClient("full");
  std::optional<CompileClient::CompileResult> FullR =
      Full->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(FullR.has_value()) << Err;
  EXPECT_FALSE(FullR->Cached);
  EXPECT_GT(FullR->Report.CandidatesTried, 3);
}

TEST_F(ServerTest, ServerWideBudgetCapAppliesToEveryClient) {
  ServerConfig Config;
  Config.MaxCandidatesCap = 2;
  startServer(std::move(Config));
  auto Client = makeClient("any");
  ConvLayer L = makeResnet18().Convs[7];
  CompileOptions Options;
  Options.MaxCandidates = 100; // Asks for more than the server allows.
  std::string Err;
  std::optional<CompileClient::CompileResult> R =
      Client->compileConv("x86", L, Options, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_LE(R->Report.CandidatesTried, 2);
}

/// A blocking compile request for \p L with \p Options as the raw
/// options object.
Json compileRequest(const ConvLayer &L, Json Options) {
  Json J = Json::object();
  J.set("type", "compile");
  J.set("target", "x86");
  J.set("workload", toJson(L));
  J.set("options", std::move(Options));
  return J;
}

TEST_F(ServerTest, OptionsBudgetPastIntMaxSearchesTheFullSpace) {
  // A budget past INT_MAX is the full space, not a wrapped cap:
  // 4294967297 must not become a one-candidate search under a `|budget1`
  // key, so the full-space entry serves it.
  startServer();
  ConvLayer L = makeResnet18().Convs[5];
  auto Client = makeClient("huge-budget");
  std::string Err;
  std::optional<CompileClient::CompileResult> Full =
      Client->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Full.has_value()) << Err;
  ASSERT_GT(Full->Report.CandidatesTried, 1);

  Json Options = Json::object();
  Options.set("max_candidates", int64_t{4294967297});
  std::optional<Json> Reply =
      Client->request(compileRequest(L, std::move(Options)), &Err);
  ASSERT_TRUE(Reply.has_value()) << Err;
  ASSERT_EQ(Reply->str("type"), "result") << Reply->dump();
  EXPECT_TRUE(Reply->boolean("cached"));
  EXPECT_EQ(Reply->get("report")->integer("candidates_tried"),
            Full->Report.CandidatesTried);
}

TEST_F(ServerTest, HelloCapPastIntMaxIsNoCap) {
  // A hello cap past INT_MAX is no cap, not a wrapped one: neither
  // 4294967296 (low word 0) nor 4294967297 (low word 1) clamps the search.
  startServer();
  ConvLayer L = makeResnet18().Convs[5];
  std::string Err;
  std::optional<CompileClient::CompileResult> Full =
      makeClient("uncapped")->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Full.has_value()) << Err;
  for (int64_t Cap : {int64_t{4294967296}, int64_t{4294967297}}) {
    SCOPED_TRACE(Cap);
    auto Client = makeClient("huge-cap");
    Json Hello = Json::object();
    Hello.set("type", "hello");
    Hello.set("client", "huge-cap");
    Hello.set("max_candidates", Cap);
    std::optional<Json> Welcome = Client->request(Hello, &Err);
    ASSERT_TRUE(Welcome.has_value()) << Err;
    ASSERT_EQ(Welcome->str("type"), "welcome") << Welcome->dump();
    std::optional<CompileClient::CompileResult> R =
        Client->compileConv("x86", L, {}, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_TRUE(R->Cached);
    EXPECT_EQ(R->Report.CandidatesTried, Full->Report.CandidatesTried);
  }
}

TEST_F(ServerTest, OldStyleOptionsGetANormalResult) {
  // The server ignores option keys it does not read, such as the
  // `policy` and `priority` an older client still sends.
  startServer();
  ConvLayer L = makeResnet18().Convs[7];
  auto Client = makeClient("old-style");
  Json Options = Json::object();
  Options.set("policy", "bypass");
  Options.set("priority", 5);
  std::string Err;
  std::optional<Json> Reply =
      Client->request(compileRequest(L, std::move(Options)), &Err);
  ASSERT_TRUE(Reply.has_value()) << Err;
  ASSERT_EQ(Reply->str("type"), "result") << Reply->dump();
  EXPECT_FALSE(Reply->boolean("cached"));
  std::optional<CompileClient::CompileResult> Again =
      Client->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Again.has_value()) << Err;
  EXPECT_TRUE(Again->Cached);
  EXPECT_EQ(Reply->get("report")->dump(), toJson(Again->Report).dump());
}

TEST_F(ServerTest, StatsReportByteAccountedCacheAndPerClientLatency) {
  startServer();
  auto Client = makeClient("statster");
  Model M = makeResnet18();
  std::string Err;
  ASSERT_TRUE(Client->compileModel("x86", M, {}, &Err)) << Err;

  std::optional<Json> Stats = Client->stats(/*Detail=*/true, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  EXPECT_EQ(Stats->str("type"), "stats_result");
  EXPECT_GT(Stats->num("uptime_seconds"), 0.0);
  EXPECT_GE(Stats->integer("tuner_invocations"), 0);

  const Json *Cache = Stats->get("cache");
  ASSERT_NE(Cache, nullptr);
  size_t Distinct = static_cast<size_t>(M.distinctConvShapes());
  EXPECT_EQ(static_cast<size_t>(Cache->integer("entries")), Distinct);
  EXPECT_GT(Cache->integer("bytes"), 0);
  EXPECT_EQ(static_cast<size_t>(Cache->integer("entries")),
            Server->session().cache().size());
  EXPECT_EQ(static_cast<size_t>(Cache->integer("bytes")),
            Server->session().cache().bytesUsed());

  // Per-entry detail sums to the total.
  const Json *Entries = Stats->get("entries");
  ASSERT_NE(Entries, nullptr);
  ASSERT_EQ(Entries->items().size(), Distinct);
  int64_t Sum = 0;
  for (const Json &E : Entries->items()) {
    EXPECT_GT(E.integer("bytes"), 0);
    EXPECT_TRUE(E.boolean("ready"));
    Sum += E.integer("bytes");
  }
  EXPECT_EQ(Sum, Cache->integer("bytes"));

  // Per-client accounting saw the compile.
  const Json *Clients = Stats->get("clients");
  ASSERT_NE(Clients, nullptr);
  bool Found = false;
  for (const Json &C : Clients->items())
    if (C.str("client") == "statster") {
      Found = true;
      EXPECT_EQ(C.integer("compile_requests"), 1);
      EXPECT_EQ(static_cast<size_t>(C.integer("layers_requested")),
                M.Convs.size());
      EXPECT_GT(C.num("total_seconds"), 0.0);
    }
  EXPECT_TRUE(Found);
}

TEST_F(ServerTest, SaveCacheMessageAndWarmRestartFromPersistedCache) {
  std::string CachePath = tempPath(".kc");
  {
    ServerConfig Config;
    Config.CacheFile = CachePath;
    Config.PersistIntervalSeconds = 0; // Shutdown-save only.
    startServer(std::move(Config));
    auto Client = makeClient("writer");
    Model M = makeResnet18();
    std::string Err;
    ASSERT_TRUE(Client->compileModel("x86", M, {}, &Err)) << Err;

    // Explicit save_cache message (the periodic thread is off).
    std::optional<size_t> Saved = Client->saveCache("", &Err);
    ASSERT_TRUE(Saved.has_value()) << Err;
    EXPECT_EQ(*Saved, static_cast<size_t>(M.distinctConvShapes()));
    Server->stop();
  }

  // A fresh server process-equivalent: new session, same cache file.
  // Every kernel restores from disk — zero tuner invocations.
  {
    ServerConfig Config;
    Config.CacheFile = CachePath;
    startServer(std::move(Config));
    auto Client = makeClient("reader");
    Model M = makeResnet18();
    uint64_t TunesBefore = tunerInvocations();
    std::string Err;
    std::optional<CompileClient::ModelResult> R =
        Client->compileModel("x86", M, {}, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_EQ(tunerInvocations(), TunesBefore);
    EXPECT_EQ(R->CacheHitLayers, M.Convs.size());
  }
  std::remove(CachePath.c_str());
}

TEST_F(ServerTest, ErrorResponsesForBadTraffic) {
  startServer();
  CompileClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;

  // Unknown request type.
  Json Unknown = Json::object();
  Unknown.set("type", "frobnicate");
  Unknown.set("id", 7);
  std::optional<Json> R = Client.request(Unknown, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");
  EXPECT_EQ(R->integer("id"), 7); // Echoed for correlation.

  // Unknown target.
  Json BadTarget = Json::object();
  BadTarget.set("type", "compile");
  BadTarget.set("target", "riscv");
  BadTarget.set("workload", toJson(makeResnet18().Convs[0]));
  R = Client.request(BadTarget, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");
  EXPECT_NE(R->str("message").find("riscv"), std::string::npos);

  // Malformed workload (missing dims).
  Json BadWork = Json::object();
  BadWork.set("type", "compile");
  Json Work = Json::object();
  Work.set("kind", "conv2d");
  BadWork.set("workload", std::move(Work));
  R = Client.request(BadWork, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");

  // Astronomical dimensions are wire errors, not daemon aborts.
  ConvLayer Huge;
  Huge.Name = "huge";
  Huge.InC = int64_t(1) << 40;
  Huge.InH = Huge.InW = 224;
  Huge.OutC = 64;
  Huge.KH = Huge.KW = 3;
  {
    std::string CompileErr;
    CompileClient C2;
    ASSERT_TRUE(C2.connect(SocketPath, &CompileErr)) << CompileErr;
    EXPECT_FALSE(
        C2.compileConv("x86", Huge, {}, &CompileErr).has_value());
    EXPECT_NE(CompileErr.find("maximum"), std::string::npos);

    // A kernel larger than the padded input is a wire error too (it
    // would fatal-error the in-process pipeline).
    ConvLayer Shrunk;
    Shrunk.Name = "kernel_gt_input";
    Shrunk.InC = 8;
    Shrunk.InH = Shrunk.InW = 3;
    Shrunk.OutC = 8;
    Shrunk.KH = Shrunk.KW = 7;
    CompileErr.clear();
    EXPECT_FALSE(
        C2.compileConv("x86", Shrunk, {}, &CompileErr).has_value());
    EXPECT_NE(CompileErr.find("output extent"), std::string::npos);
  }

  // The connection survives every error above.
  Json StillAlive = Json::object();
  StillAlive.set("type", "stats");
  R = Client.request(StillAlive, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "stats_result");
}

TEST_F(ServerTest, MalformedJsonGetsErrorAndConnectionSurvives) {
  startServer();
  // Hand-rolled connection: a valid frame carrying an invalid JSON
  // payload (CompileClient cannot produce one on purpose).
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  ASSERT_TRUE(makeUnixSocketAddr(SocketPath, Addr, nullptr));
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ASSERT_TRUE(writeFrame(Fd, "this is not json"));
  FrameReader Reader(Fd);
  std::string Payload;
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  std::optional<Json> Response = Json::parse(Payload);
  ASSERT_TRUE(Response.has_value());
  EXPECT_EQ(Response->str("type"), "error");
  EXPECT_NE(Response->str("message").find("malformed JSON"),
            std::string::npos);

  // Same connection still serves real requests.
  Json Stats = Json::object();
  Stats.set("type", "stats");
  ASSERT_TRUE(writeFrame(Fd, Stats.dump()));
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  Response = Json::parse(Payload);
  ASSERT_TRUE(Response.has_value());
  EXPECT_EQ(Response->str("type"), "stats_result");
  ::close(Fd);
}

TEST_F(ServerTest, FramingViolationGetsPromptEofNotAHang) {
  startServer();
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  ASSERT_TRUE(makeUnixSocketAddr(SocketPath, Addr, nullptr));
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  // A length prefix beyond MaxFrameBytes is a framing violation: the
  // server must end the connection (visible EOF) rather than leave the
  // client blocked until the next accept happens to reap the fd.
  const char Huge[4] = {0x7f, 0x00, 0x00, 0x00};
  ASSERT_EQ(::write(Fd, Huge, 4), 4);
  std::string Payload;
  FrameStatus Status = FrameReader(Fd).next(Payload);
  EXPECT_TRUE(Status == FrameStatus::Eof || Status == FrameStatus::Error);
  ::close(Fd);
}

TEST_F(ServerTest, ShutdownMessageStopsTheServer) {
  startServer();
  auto Client = makeClient("terminator");
  std::string Err;
  ASSERT_TRUE(Client->shutdownServer(&Err)) << Err;

  // The owner observes the request and completes the stop.
  Server->waitForShutdownRequest();
  Server->stop();
  EXPECT_FALSE(Server->running());

  // Socket file is gone; new connections fail.
  CompileClient Late;
  EXPECT_FALSE(Late.connect(SocketPath, &Err));
}

/// Orderly shutdown with a request in flight: the response is still
/// delivered before the connection closes.
TEST_F(ServerTest, StopDeliversInFlightResponses) {
  startServer();
  auto Client = makeClient("inflight");
  uint64_t RequestsBefore = 0;
  {
    // hello + connection already counted; remember the request total.
    RequestsBefore = Server->totals().Requests;
  }

  Model M = makeResnet50(); // Enough layers that the compile takes a beat.
  std::optional<CompileClient::ModelResult> Result;
  std::string Err;
  std::thread Worker(
      [&] { Result = Client->compileModel("x86", M, {}, &Err); });

  // Wait until the server has *read* the compile request (the totals
  // counter increments before handling), then yank the rug.
  while (Server->totals().Requests <= RequestsBefore)
    std::this_thread::yield();
  Server->stop();
  Worker.join();

  ASSERT_TRUE(Result.has_value()) << Err;
  EXPECT_EQ(Result->Layers.size(), M.Convs.size());
  for (const KernelReport &R : Result->Layers)
    EXPECT_GT(R.Seconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Streaming: compile_async / result notifications
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, SubmitResolvesLikeBlockingCompile) {
  startServer();
  auto Client = makeClient("streamer");
  ConvLayer L = makeResnet18().Convs[4];
  std::string Err;

  std::optional<CompileClient::AsyncHandle> Handle =
      Client->submitConv("x86", L, {}, &Err);
  ASSERT_TRUE(Handle.has_value()) << Err;
  EXPECT_GT(Handle->Ticket, 0u);
  std::optional<CompileClient::CompileResult> Streamed =
      Client->wait(*Handle, &Err);
  ASSERT_TRUE(Streamed.has_value()) << Err;
  EXPECT_FALSE(Streamed->Cached);
  EXPECT_EQ(Streamed->Arrival, 1u);

  // The pushed report is byte-identical to the blocking path's.
  std::optional<CompileClient::CompileResult> Blocking =
      Client->compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Blocking.has_value()) << Err;
  EXPECT_TRUE(Blocking->Cached);
  EXPECT_EQ(Blocking->Report.Seconds, Streamed->Report.Seconds);
  EXPECT_EQ(Blocking->Report.IntrinsicName, Streamed->Report.IntrinsicName);

  // A warm resubmission resolves cached, and the ticket is fresh.
  std::optional<CompileClient::AsyncHandle> Warm =
      Client->submitConv("x86", L, {}, &Err);
  ASSERT_TRUE(Warm.has_value()) << Err;
  EXPECT_GT(Warm->Ticket, Handle->Ticket);
  std::optional<CompileClient::CompileResult> WarmResult =
      Client->wait(*Warm, &Err);
  ASSERT_TRUE(WarmResult.has_value()) << Err;
  EXPECT_TRUE(WarmResult->Cached);
  EXPECT_EQ(WarmResult->Report.Seconds, Streamed->Report.Seconds);
}

/// A compile the test controls: the entry is planted in the server
/// session's cache as an in-flight winner that blocks on \p GateOpen, so
/// every compile_async for the same structural key joins it and cannot
/// resolve until the gate opens. What "slow kernel" looks like to the
/// streaming machinery, made deterministic.
struct GatedCompiles {
  std::shared_future<void> GateOpen;
  std::vector<std::thread> Winners;

  GatedCompiles(CompilerSession &Session, std::shared_future<void> Gate,
                const std::vector<ConvLayer> &Layers, double SecondsBase)
      : GateOpen(std::move(Gate)) {
    TargetBackendRef Backend = TargetRegistry::instance().get("x86");
    for (size_t I = 0; I < Layers.size(); ++I) {
      std::string Key =
          CompileRequest(Workload::conv2d(Layers[I]), Backend).cacheKey();
      // Winning the key here plants the in-flight entry before anyone
      // submits against it; the thread only waits and then publishes.
      KernelCache::ComputeTicket Ticket;
      if (Session.cache().resolveThen(Key, nullptr, nullptr, &Ticket) !=
          KernelCache::ResolveKind::MustCompute)
        continue;
      Winners.emplace_back(
          [&Session, this, Key, SecondsBase, I, Ticket]() mutable {
            GateOpen.wait();
            KernelReport R;
            R.Seconds = SecondsBase + static_cast<double>(I);
            R.Tensorized = true;
            Session.cache().fulfill(Key, Ticket, R);
          });
    }
  }
  void join() {
    for (std::thread &T : Winners)
      if (T.joinable())
        T.join();
  }
  ~GatedCompiles() { join(); }
};

/// Handles whose result has not landed yet: the client-side view of the
/// tickets still pending on the connection.
size_t countNotReady(const std::vector<CompileClient::AsyncHandle> &Handles) {
  return static_cast<size_t>(
      std::count_if(Handles.begin(), Handles.end(),
                    [](const CompileClient::AsyncHandle &H) {
                      return !H.ready();
                    }));
}

std::vector<ConvLayer> syntheticLayers(size_t N, int64_t BaseChannels) {
  std::vector<ConvLayer> Layers;
  for (size_t I = 0; I < N; ++I) {
    ConvLayer L;
    L.Name = "gated_" + std::to_string(I);
    L.InC = BaseChannels + static_cast<int64_t>(I) * 16;
    L.InH = L.InW = 14;
    L.OutC = 64;
    L.KH = L.KW = 1;
    Layers.push_back(L);
  }
  return Layers;
}

/// The acceptance criterion: one connection holds >= 8 concurrent
/// in-flight compiles, results are delivered out of submission order,
/// and a duplicate ticket on an in-flight key joins the shared entry.
TEST_F(ServerTest, OneConnectionPipelinesEightInFlightOutOfOrder) {
  ServerConfig Config;
  // Plenty of workers; FanInBeyondPoolSizeRidesContinuations below covers
  // the starved-pool regime (joins are continuations, not parked threads).
  Config.SessionCfg.Threads = 16;
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(8, 32);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/100.0);

  auto Client = makeClient("pipeliner");
  std::string Err;

  // Submit the eight gated layers first, then one duplicate of the first
  // gated key (joining it mid-flight), then two free layers.
  std::vector<CompileClient::AsyncHandle> GatedHandles;
  for (const ConvLayer &L : Gated) {
    std::optional<CompileClient::AsyncHandle> H =
        Client->submitConv("x86", L, {}, &Err);
    ASSERT_TRUE(H.has_value()) << Err;
    GatedHandles.push_back(*H);
  }
  std::optional<CompileClient::AsyncHandle> Duplicate =
      Client->submitConv("x86", Gated[0], {}, &Err);
  ASSERT_TRUE(Duplicate.has_value()) << Err;

  Model Zoo = makeResnet18();
  std::vector<CompileClient::AsyncHandle> Free;
  for (size_t I : {size_t(3), size_t(9)}) {
    std::optional<CompileClient::AsyncHandle> H =
        Client->submitConv("x86", Zoo.Convs[I], {}, &Err);
    ASSERT_TRUE(H.has_value()) << Err;
    Free.push_back(*H);
  }

  // The free submissions (sent last) complete while all eight gated
  // tickets are still in flight — out-of-order delivery on one socket.
  std::vector<uint64_t> FreeArrivals;
  for (const CompileClient::AsyncHandle &H : Free) {
    std::optional<CompileClient::CompileResult> R = Client->wait(H, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_FALSE(R->Cached);
    FreeArrivals.push_back(R->Arrival);
  }
  // >= 8 concurrent in-flight tickets on this one connection: the eight
  // gated handles and the duplicate are all still unresolved.
  std::vector<CompileClient::AsyncHandle> InFlight = GatedHandles;
  InFlight.push_back(*Duplicate);
  EXPECT_EQ(countNotReady(InFlight), 9u);

  Gate.set_value();
  Blocked.join();
  ASSERT_TRUE(Client->waitAll(&Err)) << Err;

  uint64_t MaxFree = std::max(FreeArrivals[0], FreeArrivals[1]);
  for (size_t I = 0; I < GatedHandles.size(); ++I) {
    std::optional<CompileClient::CompileResult> R =
        Client->wait(GatedHandles[I], &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    // Joined the planted winner: cached, with its synthetic report.
    EXPECT_TRUE(R->Cached);
    EXPECT_EQ(R->Report.Seconds, 100.0 + static_cast<double>(I));
    EXPECT_GT(R->Arrival, MaxFree); // Delivered after both frees.
  }
  // The duplicate joined the same planted winner.
  std::optional<CompileClient::CompileResult> Joined =
      Client->wait(*Duplicate, &Err);
  ASSERT_TRUE(Joined.has_value()) << Err;
  EXPECT_TRUE(Joined->Cached);
  EXPECT_EQ(Joined->Report.Seconds, 100.0);

  // The shared entry still serves its key, bit-equal, as a pure hit.
  std::optional<CompileClient::CompileResult> AfterGate =
      Client->compileConv("x86", Gated[0], {}, &Err);
  ASSERT_TRUE(AfterGate.has_value()) << Err;
  EXPECT_TRUE(AfterGate->Cached);
  EXPECT_EQ(AfterGate->Report.Seconds, 100.0);

  // Streaming counters: 11 tickets issued, all 11 delivered.
  std::optional<Json> Stats = Client->stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *Streaming = Stats->get("streaming");
  ASSERT_NE(Streaming, nullptr);
  EXPECT_EQ(Streaming->integer("tickets_issued"), 11);
  EXPECT_EQ(Streaming->integer("notifications_delivered"), 11);
}

/// Streaming stress: 4 clients x 8 pipelined compiles drawn (shuffled,
/// with structural duplicates) from 6 distinct layers. Single-flight
/// must hold across connections — tuner invocations == distinct keys —
/// and every client sees identical reports per layer.
TEST_F(ServerTest, StreamingStressCrossConnectionSingleFlight) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 16;
  startServer(std::move(Config));

  Model Zoo = makeResnet18();
  // Six structurally distinct layers (resnet18 repeats shapes; dedup).
  TargetBackendRef Backend = TargetRegistry::instance().get("x86");
  std::vector<ConvLayer> Distinct;
  std::set<std::string> Keys;
  for (const ConvLayer &L : Zoo.Convs) {
    if (Keys.insert(CompileRequest(Workload::conv2d(L), Backend).cacheKey())
            .second)
      Distinct.push_back(L);
    if (Distinct.size() == 6)
      break;
  }
  ASSERT_EQ(Distinct.size(), 6u);

  constexpr size_t Clients = 4, PerClient = 8;
  uint64_t TunesBefore = tunerInvocations();
  // Results[c][i] = seconds for client c's i-th submission.
  double Results[Clients][PerClient];
  int Picked[Clients][PerClient];
  std::string Errors[Clients];
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      CompileClient Client;
      if (!Client.connect(SocketPath, &Errors[C]) ||
          !Client.hello("stress-" + std::to_string(C), 0, &Errors[C]))
        return;
      std::vector<CompileClient::AsyncHandle> Handles;
      for (size_t I = 0; I < PerClient; ++I) {
        // A different duplicate-bearing shuffle per client: every layer
        // appears somewhere, several appear twice per client, and no two
        // clients submit in the same order.
        int Pick = static_cast<int>((I * 5 + C * 3 + (I % 2) * C) % 6);
        Picked[C][I] = Pick;
        std::optional<CompileClient::AsyncHandle> H =
            Client.submitConv("x86", Distinct[Pick], {}, &Errors[C]);
        if (!H)
          return;
        Handles.push_back(*H);
      }
      for (size_t I = 0; I < PerClient; ++I) {
        std::optional<CompileClient::CompileResult> R =
            Client.wait(Handles[I], &Errors[C]);
        if (!R) {
          Errors[C] = "wait failed: " + Errors[C];
          return;
        }
        Results[C][I] = R->Report.Seconds;
      }
      Errors[C] = "ok";
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t C = 0; C < Clients; ++C)
    ASSERT_EQ(Errors[C], "ok");

  // Cross-connection single-flight: 32 submissions, 6 tuner runs.
  EXPECT_EQ(tunerInvocations() - TunesBefore, 6u);

  // Agreement: every submission of one layer got the same report, and it
  // matches what the server now serves warm.
  auto WarmClient = makeClient("stress-verify");
  std::string Err;
  for (size_t Pick = 0; Pick < Distinct.size(); ++Pick) {
    std::optional<CompileClient::CompileResult> Warm =
        WarmClient->compileConv("x86", Distinct[Pick], {}, &Err);
    ASSERT_TRUE(Warm.has_value()) << Err;
    EXPECT_TRUE(Warm->Cached);
    for (size_t C = 0; C < Clients; ++C)
      for (size_t I = 0; I < PerClient; ++I)
        if (Picked[C][I] == static_cast<int>(Pick)) {
          EXPECT_EQ(Results[C][I], Warm->Report.Seconds);
        }
  }
}

/// Graceful drain under streaming (extends StopDeliversInFlightResponses
/// to the pipelined path): shutdown with pending tickets still delivers
/// every result after the bye — no ticket is lost, no client hangs.
TEST_F(ServerTest, ShutdownWithPendingTicketsDeliversEveryResult) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 16;
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(4, 48);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/200.0);

  auto Client = makeClient("drainer");
  std::string Err;
  std::vector<CompileClient::AsyncHandle> Handles;
  for (const ConvLayer &L : Gated) {
    std::optional<CompileClient::AsyncHandle> H =
        Client->submitConv("x86", L, {}, &Err);
    ASSERT_TRUE(H.has_value()) << Err;
    Handles.push_back(*H);
  }

  // Raw shutdown request (shutdownServer() would close our socket and
  // orphan the pending futures): the server answers bye, stops reading
  // this connection, and *then* drains the ticket table into it.
  Json Shutdown = Json::object();
  Shutdown.set("type", "shutdown");
  std::optional<Json> Bye = Client->request(Shutdown, &Err);
  ASSERT_TRUE(Bye.has_value()) << Err;
  EXPECT_EQ(Bye->str("type"), "bye");

  Gate.set_value();
  Blocked.join();
  ASSERT_TRUE(Client->waitAll(&Err)) << Err;
  for (size_t I = 0; I < Handles.size(); ++I) {
    std::optional<CompileClient::CompileResult> R =
        Client->wait(Handles[I], &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_EQ(R->Report.Seconds, 200.0 + static_cast<double>(I));
  }

  Server->waitForShutdownRequest();
  Server->stop();
  EXPECT_FALSE(Server->running());
}

/// A client that vanishes with tickets in flight must not wedge the
/// daemon: its connection drains (the writes fail silently), new clients
/// are served, and stop() completes.
TEST_F(ServerTest, ClientVanishingWithPendingTicketsLeavesServerHealthy) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 16;
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(2, 80);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/300.0);
  {
    CompileClient Doomed;
    std::string Err;
    ASSERT_TRUE(Doomed.connect(SocketPath, &Err)) << Err;
    ASSERT_TRUE(Doomed.hello("doomed", 0, &Err).has_value()) << Err;
    for (const ConvLayer &L : Gated)
      ASSERT_TRUE(Doomed.submitConv("x86", L, {}, &Err).has_value()) << Err;
  } // Destructor closes the socket with both tickets pending.

  Gate.set_value();
  Blocked.join();

  auto Survivor = makeClient("survivor");
  std::string Err;
  std::optional<CompileClient::CompileResult> R =
      Survivor->compileConv("x86", Gated[0], {}, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_TRUE(R->Cached);
  EXPECT_EQ(R->Report.Seconds, 300.0);

  Server->stop();
  EXPECT_FALSE(Server->running());
}

/// The continuation engine observed through the wire: a pool of TWO
/// workers sustains 32 pending joins on one connection, because a join
/// is a registered callback on the in-flight entry, not a parked thread.
/// (Under the parked-join engine each join pinned a worker on the
/// winner's future, so 32 joins on a 2-thread pool starved every later
/// compile.) The free layers, submitted last, complete first — and the
/// server's own counters show every gated ticket joined.
TEST_F(ServerTest, FanInBeyondPoolSizeRidesContinuations) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 2; // Far fewer workers than pending joins.
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(8, 32);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/400.0);

  auto Client = makeClient("fanin");
  std::string Err;

  // 8 gated keys x 4 tickets each: 32 joins in flight on 2 threads.
  std::vector<CompileClient::AsyncHandle> Joined;
  for (int Round = 0; Round < 4; ++Round)
    for (const ConvLayer &L : Gated) {
      std::optional<CompileClient::AsyncHandle> H =
          Client->submitConv("x86", L, {}, &Err);
      ASSERT_TRUE(H.has_value()) << Err;
      Joined.push_back(*H);
    }

  // Two free layers submitted after the fan-in. If any join held a
  // worker, zero threads would be left to run these.
  Model Zoo = makeResnet18();
  for (size_t I : {size_t(3), size_t(9)}) {
    std::optional<CompileClient::AsyncHandle> H =
        Client->submitConv("x86", Zoo.Convs[I], {}, &Err);
    ASSERT_TRUE(H.has_value()) << Err;
    std::optional<CompileClient::CompileResult> R = Client->wait(*H, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_FALSE(R->Cached);
    // Out-of-order delivery: the frees are the only notifications so far.
    EXPECT_LE(R->Arrival, 2u);
  }
  EXPECT_EQ(countNotReady(Joined), 32u);

  // The session's own accounting: every gated ticket is a continuation
  // join.
  std::optional<Json> Stats = Client->stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *SessionJson = Stats->get("session");
  ASSERT_NE(SessionJson, nullptr);
  EXPECT_GE(SessionJson->integer("continuation_joins"), 32);

  Gate.set_value();
  Blocked.join();
  ASSERT_TRUE(Client->waitAll(&Err)) << Err;
  for (size_t I = 0; I < Joined.size(); ++I) {
    std::optional<CompileClient::CompileResult> R =
        Client->wait(Joined[I], &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_TRUE(R->Cached);
    EXPECT_EQ(R->Report.Seconds, 400.0 + static_cast<double>(I % 8));
  }
}

/// The raised ticket budget, exercised at the bound: 8192 tickets pend
/// on ONE connection (all joining a single gated key, so the whole load
/// is continuation state — no thread, no extra compile), submission
/// 8193 gets the budget error naming the new limit, and once the gate
/// opens all 8192 resolve to the winner's report.
TEST_F(ServerTest, TicketBudgetHoldsEightThousandJoinsOnOneConnection) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 2;
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(1, 32);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/500.0);

  auto Client = makeClient("budget");
  std::string Err;

  // Pipeline exactly MaxPendingTicketsPerConnection submissions of the
  // one gated layer (submitModelLayers streams the frames back-to-back;
  // 8192 blocking round trips would drown the test in socket stalls).
  Model Burst;
  Burst.Name = "burst";
  Burst.Convs.assign(MaxPendingTicketsPerConnection, Gated[0]);
  std::optional<std::vector<CompileClient::AsyncHandle>> Handles =
      Client->submitModelLayers("x86", Burst, {}, &Err);
  ASSERT_TRUE(Handles.has_value()) << Err;
  ASSERT_EQ(Handles->size(), MaxPendingTicketsPerConnection);
  EXPECT_EQ(countNotReady(*Handles), MaxPendingTicketsPerConnection);

  // One past the budget: an error frame naming the limit — and the
  // connection survives to keep serving (waitAll below proves it).
  std::string BudgetErr;
  EXPECT_FALSE(
      Client->submitConv("x86", Gated[0], {}, &BudgetErr).has_value());
  EXPECT_NE(BudgetErr.find("8192"), std::string::npos) << BudgetErr;

  Gate.set_value();
  Blocked.join();
  ASSERT_TRUE(Client->waitAll(&Err)) << Err;
  for (const CompileClient::AsyncHandle &H :
       {Handles->front(), Handles->back()}) {
    std::optional<CompileClient::CompileResult> R = Client->wait(H, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_TRUE(R->Cached);
    EXPECT_EQ(R->Report.Seconds, 500.0);
  }

  std::optional<Json> Stats = Client->stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *SessionJson = Stats->get("session");
  ASSERT_NE(SessionJson, nullptr);
  EXPECT_GE(SessionJson->integer("continuation_joins"),
            static_cast<int64_t>(MaxPendingTicketsPerConnection));
}

/// A dropped connection has one outcome: the client fails every pending
/// future with the transport error and every later request fast. The
/// "server" is a bare listener speaking just enough protocol to welcome
/// the client and grant a ticket before it hangs up.
TEST_F(ServerTest, DroppedConnectionFailsPendingTicketsAndLaterRequests) {
  SocketPath = tempPath(".sock");

  int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Listener, 0);
  sockaddr_un Addr;
  ASSERT_TRUE(makeUnixSocketAddr(SocketPath, Addr, nullptr));
  ASSERT_EQ(::bind(Listener, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(Listener, 1), 0);

  // The flaky half: welcome the client, grant ticket 7 for its
  // compile_async, then close the connection with the ticket unresolved.
  std::thread Flaky([&] {
    int FlakyConn = ::accept(Listener, nullptr, nullptr);
    if (FlakyConn < 0)
      return;
    FrameReader Reader(FlakyConn);
    std::string Frame;
    if (Reader.next(Frame) == FrameStatus::Ok) { // hello
      Json Welcome = Json::object();
      Welcome.set("type", "welcome");
      Welcome.set("server", "flaky");
      Welcome.set("protocol", ProtocolVersion);
      writeFrame(FlakyConn, Welcome.dump());
    }
    if (Reader.next(Frame) == FrameStatus::Ok) { // compile_async
      Json Submitted = Json::object();
      Submitted.set("type", "submitted");
      Submitted.set("ticket", 7);
      writeFrame(FlakyConn, Submitted.dump());
    }
    ::close(FlakyConn);
  });

  CompileClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;
  ASSERT_TRUE(Client.hello("mayfly", 0, &Err).has_value()) << Err;

  Model Zoo = makeResnet18();
  std::optional<CompileClient::AsyncHandle> H =
      Client.submitConv("x86", Zoo.Convs[0], {}, &Err);
  ASSERT_TRUE(H.has_value()) << Err;
  EXPECT_EQ(H->Ticket, 7u);
  Flaky.join();
  ::close(Listener);

  // The pending future fails with the transport error, promptly.
  ASSERT_FALSE(Client.wait(*H, &Err).has_value());
  EXPECT_FALSE(Client.wait(*H, &Err).has_value());
  EXPECT_EQ(Err, "server closed the connection");
  EXPECT_EQ(countNotReady({*H}), 0u);
  // The reader saw the close, so the client reads as disconnected before
  // any request has failed on the dead socket.
  EXPECT_FALSE(Client.connected());

  // Nothing heals the connection: the next round trip fails fast and the
  // client stays disconnected.
  auto Start = std::chrono::steady_clock::now();
  Err.clear();
  EXPECT_FALSE(Client.compileConv("x86", Zoo.Convs[0], {}, &Err).has_value());
  EXPECT_FALSE(Err.empty());
  EXPECT_LT(std::chrono::steady_clock::now() - Start, std::chrono::seconds(5));
  EXPECT_FALSE(Client.connected());

  // An explicit connect to a live server clears the reader's exit.
  startServer();
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;
  EXPECT_TRUE(Client.connected());
  ASSERT_TRUE(Client.hello("mayfly-again", 0, &Err).has_value()) << Err;
  EXPECT_TRUE(Client.connected());
}

/// The client reads while it writes: a burst of warm submissions whose
/// requests (about 1.7 MB) and replies (about 1 MB: a submitted reply and
/// a result per layer) each overflow a socket's buffers. A write that
/// only waited for room would deadlock against a server blocked sending
/// replies nobody reads.
TEST_F(ServerTest, BurstWhoseRepliesOverflowBothSocketBuffersResolves) {
  startServer();
  auto Client = makeClient("flood");
  std::string Err;
  ConvLayer Warm = makeResnet18().Convs[4];
  ASSERT_TRUE(Client->compileConv("x86", Warm, {}, &Err).has_value()) << Err;

  Model Burst;
  Burst.Name = "flood";
  Burst.Convs.assign(4096, Warm);
  std::optional<std::vector<CompileClient::AsyncHandle>> Handles =
      Client->submitModelLayers("x86", Burst, {}, &Err);
  ASSERT_TRUE(Handles.has_value()) << Err;
  ASSERT_EQ(Handles->size(), Burst.Convs.size());
  std::set<uint64_t> Tickets;
  for (const CompileClient::AsyncHandle &H : *Handles) {
    std::optional<CompileClient::CompileResult> R = Client->wait(H, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_TRUE(R->Cached);
    Tickets.insert(H.Ticket);
  }
  EXPECT_EQ(Tickets.size(), Burst.Convs.size());
  EXPECT_TRUE(Client->waitAll(&Err)) << Err;
  EXPECT_TRUE(Client->connected());
}

/// wait() on a second thread while the first thread's blocking compile
/// is in flight: one of them reads, the other is handed its frame, and
/// each gets its own result.
TEST_F(ServerTest, WaitOnASecondThreadDuringABlockingCompile) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 4;
  startServer(std::move(Config));

  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(2, 48);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/600.0);
  auto Client = makeClient("two-threads");
  std::string Err;
  std::optional<CompileClient::AsyncHandle> H =
      Client->submitConv("x86", Gated[1], {}, &Err);
  ASSERT_TRUE(H.has_value()) << Err;

  std::optional<CompileClient::CompileResult> Waited;
  std::string WaitErr;
  std::thread Waiter([&] { Waited = Client->wait(*H, &WaitErr); });
  // Both results stay gated until both calls are (very likely) blocked.
  std::thread Opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Gate.set_value();
  });
  std::optional<CompileClient::CompileResult> Blocking =
      Client->compileConv("x86", Gated[0], {}, &Err);
  Opener.join();
  Waiter.join();
  Blocked.join();
  ASSERT_TRUE(Blocking.has_value()) << Err;
  ASSERT_TRUE(Waited.has_value()) << WaitErr;
  EXPECT_EQ(Blocking->Report.Seconds, 600.0);
  EXPECT_EQ(Waited->Report.Seconds, 601.0);
  EXPECT_TRUE(Waited->Cached);
  EXPECT_EQ(Waited->Arrival, 1u);
  EXPECT_TRUE(Client->connected());
}

/// Nothing reads on its own: the client reads as connected after the
/// server hung up, until a wait() reads the close.
TEST_F(ServerTest, ConnectedReadsFalseOnceAWaitSawTheServerClose) {
  SocketPath = tempPath(".sock");
  int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Listener, 0);
  sockaddr_un Addr;
  ASSERT_TRUE(makeUnixSocketAddr(SocketPath, Addr, nullptr));
  ASSERT_EQ(::bind(Listener, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(Listener, 1), 0);
  // Grants ticket 9 for the one compile_async, then hangs up.
  std::thread HangUp([&] {
    int Conn = ::accept(Listener, nullptr, nullptr);
    if (Conn < 0)
      return;
    FrameReader Reader(Conn);
    std::string Frame;
    if (Reader.next(Frame) == FrameStatus::Ok) {
      Json Submitted = Json::object();
      Submitted.set("type", "submitted");
      Submitted.set("ticket", 9);
      writeFrame(Conn, Submitted.dump());
    }
    ::close(Conn);
  });

  CompileClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;
  std::optional<CompileClient::AsyncHandle> H =
      Client.submitConv("x86", makeResnet18().Convs[0], {}, &Err);
  HangUp.join();
  ::close(Listener);
  ASSERT_TRUE(H.has_value()) << Err;
  EXPECT_TRUE(Client.connected());
  EXPECT_FALSE(H->ready());

  EXPECT_FALSE(Client.wait(*H, &Err).has_value());
  EXPECT_EQ(Err, "server closed the connection");
  EXPECT_FALSE(Client.connected());
  EXPECT_TRUE(H->ready());
}

//===----------------------------------------------------------------------===//
// Protocol robustness: the server outlives every kind of bad traffic
//===----------------------------------------------------------------------===//

namespace robustness {

int rawConnect(const std::string &SocketPath) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr;
  if (!makeUnixSocketAddr(SocketPath, Addr, nullptr) ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace robustness

TEST_F(ServerTest, TruncatedLengthPrefixDoesNotWedgeTheServer) {
  startServer();
  // Two bytes of a four-byte length prefix, then EOF: the half-frame
  // must be discarded and the daemon must keep serving everyone else.
  int Fd = robustness::rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  const char Half[2] = {0x00, 0x00};
  ASSERT_EQ(::write(Fd, Half, 2), 2);
  ::close(Fd);

  auto Client = makeClient("after-truncation");
  std::string Err;
  EXPECT_TRUE(Client->stats(false, &Err).has_value()) << Err;
}

TEST_F(ServerTest, FrameOverTheBoundEndsOnlyThatConnection) {
  startServer();
  // A length prefix just past MaxFrameBytes: framing violation — prompt
  // EOF on this connection, not a hang, and not a dead daemon.
  int Fd = robustness::rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  uint32_t Len = MaxFrameBytes + 1;
  const char Header[4] = {
      static_cast<char>(Len >> 24), static_cast<char>(Len >> 16),
      static_cast<char>(Len >> 8), static_cast<char>(Len)};
  ASSERT_EQ(::write(Fd, Header, 4), 4);
  std::string Payload;
  FrameStatus Status = FrameReader(Fd).next(Payload);
  EXPECT_TRUE(Status == FrameStatus::Eof || Status == FrameStatus::Error);
  ::close(Fd);

  auto Client = makeClient("after-oversize");
  std::string Err;
  EXPECT_TRUE(Client->stats(false, &Err).has_value()) << Err;
}

/// A good request and a framing violation arriving in one read: the
/// reply the burst already earned still goes out, then EOF. Nothing but
/// the connection thread itself would ever flush that reply, so a loop
/// that stopped reading without flushing would hang this client.
TEST_F(ServerTest, FramingViolationAfterARequestInOneReadStillGetsItsReply) {
  startServer();
  int Fd = robustness::rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  timeval Timeout = {10, 0}; // A hang reads as Error, not a stuck test.
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  Json Stats = Json::object();
  Stats.set("type", "stats");
  std::string Burst;
  appendFrame(Burst, Stats.dump());
  Burst.append({0x7f, 0x00, 0x00, 0x00});
  ASSERT_TRUE(writeAll(Fd, Burst));

  FrameReader Reader(Fd);
  std::string Payload;
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  std::optional<Json> Reply = Json::parse(Payload);
  ASSERT_TRUE(Reply.has_value()) << Payload;
  EXPECT_EQ(Reply->str("type"), "stats_result");
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Eof);
  ::close(Fd);
}

TEST_F(ServerTest, StreamingErrorsAnswerWithErrorFramesAndServerSurvives) {
  startServer();
  auto Client = makeClient("prober");
  std::string Err;

  // compile_async for an unknown target: synchronous error, no ticket.
  Json BadTarget = Json::object();
  BadTarget.set("type", "compile_async");
  BadTarget.set("id", 41);
  BadTarget.set("target", "riscv");
  BadTarget.set("workload", toJson(makeResnet18().Convs[0]));
  std::optional<Json> R = Client->request(BadTarget, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");
  EXPECT_EQ(R->integer("id"), 41);
  EXPECT_NE(R->str("message").find("riscv"), std::string::npos);

  // compile_async with a malformed workload: error, no ticket.
  Json BadWork = Json::object();
  BadWork.set("type", "compile_async");
  Json Work = Json::object();
  Work.set("kind", "conv2d"); // Every dimension missing.
  BadWork.set("workload", std::move(Work));
  R = Client->request(BadWork, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_EQ(R->str("type"), "error");

  // cancel and poll are not request types: each gets the unknown-type
  // error frame.
  for (const char *Type : {"cancel", "poll"}) {
    Json Removed = Json::object();
    Removed.set("type", Type);
    Removed.set("ticket", 1);
    R = Client->request(Removed, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_EQ(R->str("type"), "error") << Type;
    EXPECT_NE(R->str("message").find("unknown request type '" +
                                     std::string(Type) + "'"),
              std::string::npos)
        << R->str("message");
  }

  // The connection took four error frames and still compiles.
  std::optional<CompileClient::CompileResult> Ok =
      Client->compileConv("x86", makeResnet18().Convs[0], {}, &Err);
  ASSERT_TRUE(Ok.has_value()) << Err;
}

//===----------------------------------------------------------------------===//
// One writer per connection: stalled readers and wire order
//===----------------------------------------------------------------------===//

/// A compile_async request frame for \p L, as a raw client would send it.
Json compileAsyncRequest(const ConvLayer &L, int64_t Id = 0,
                         int MaxCandidates = -1) {
  Json J = Json::object();
  J.set("type", "compile_async");
  if (Id != 0)
    J.set("id", Id);
  J.set("target", "x86");
  J.set("workload", toJson(L));
  CompileOptions Options;
  Options.MaxCandidates = MaxCandidates;
  J.set("options", toJson(Options));
  return J;
}

/// Sends \p Bytes on \p Fd without ever blocking: returns once all are
/// sent or the socket has stayed full for \p StallMillis — that is, once
/// the server has stopped reading this connection. Returns bytes sent.
size_t sendUntilStalled(int Fd, const std::string &Bytes, int StallMillis) {
  size_t Sent = 0;
  while (Sent < Bytes.size()) {
    pollfd P = {Fd, POLLOUT, 0};
    if (::poll(&P, 1, StallMillis) <= 0)
      break;
    ssize_t N = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
    if (N < 0 && errno != EAGAIN && errno != EINTR)
      break;
    if (N > 0)
      Sent += static_cast<size_t>(N);
  }
  return Sent;
}

/// A client that pipelines compile_async and never reads stalls only its
/// own connection. Its joins wait on one gated key ahead of a
/// well-behaved client's join; when the gate opens, the winner's thread
/// fires every joiner's continuation. Those continuations may only queue
/// the stalled client's notifications: one that wrote to the full socket
/// would hold the winner's thread, and the joiner behind it, for the
/// 30 s send timeout.
TEST_F(ServerTest, StalledReaderDoesNotHoldJoinersOfTheSameKey) {
  startServer();
  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(1, 96);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/600.0);

  // 4000 pipelined joins, about 5 MiB of requests. Each carries a 1 KiB
  // id, which its submitted reply echoes, so the unread replies fill the
  // server's socket buffer (208 KiB by default) after about two hundred
  // of them, however the server batches its writes: the server's
  // connection thread blocks in a write and stops reading, so the burst
  // stalls part way, with every join the server did read issued on the
  // gated key.
  int Stalled = robustness::rawConnect(SocketPath);
  ASSERT_GE(Stalled, 0);
  Json Join = compileAsyncRequest(Gated[0]);
  Join.set("id", std::string(1024, 'i'));
  std::string Burst;
  for (int I = 0; I < 4000; ++I)
    appendFrame(Burst, Join.dump());
  EXPECT_LT(sendUntilStalled(Stalled, Burst, /*StallMillis=*/500),
            Burst.size());

  // The server has stopped reading once the issued count holds still.
  auto Monitor = makeClient("monitor");
  auto IssuedTickets = [&Monitor] {
    std::optional<Json> Stats = Monitor->stats(false);
    return Stats ? Stats->get("streaming")->integer("tickets_issued") : -1;
  };
  int64_t Issued = -1;
  for (int64_t Seen = IssuedTickets(); Seen != Issued;) {
    Issued = Seen;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Seen = IssuedTickets();
  }
  EXPECT_GE(Issued, 100);

  // The well-behaved client joins last, behind every stalled join.
  auto Good = makeClient("well-behaved");
  std::string Err;
  std::optional<CompileClient::AsyncHandle> H =
      Good->submitConv("x86", Gated[0], {}, &Err);
  ASSERT_TRUE(H.has_value()) << Err;
  Gate.set_value();
  std::string WaitErr;
  std::future<std::optional<CompileClient::CompileResult>> Waited =
      std::async(std::launch::async, [&] { return Good->wait(*H, &WaitErr); });
  EXPECT_EQ(Waited.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "a stalled reader held the well-behaved client for over 5 s";

  // Hang up before stop(): the server's blocked write then fails at once
  // instead of running out its send timeout.
  ::close(Stalled);
  std::optional<CompileClient::CompileResult> R = Waited.get();
  ASSERT_TRUE(R.has_value()) << WaitErr;
  EXPECT_EQ(R->Report.Seconds, 600.0);
  Blocked.join();

  // Every stalled ticket still counted its notification when it queued.
  std::optional<Json> Stats = Monitor->stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  EXPECT_EQ(Stats->get("streaming")->integer("notifications_delivered"),
            Stats->get("streaming")->integer("tickets_issued"));
}

/// The pool-worker path: every cold miss runs on a worker, which fires
/// the completion callback. Two stalled readers on a two-worker pool must
/// not take both workers with them.
TEST_F(ServerTest, StalledReadersDoNotHoldPoolWorkers) {
  ServerConfig Config;
  Config.SessionCfg.Threads = 2;
  startServer(std::move(Config));
  ConvLayer L = syntheticLayers(1, 16)[0];

  // Every request carries its own tuning budget, which salts its cache
  // key, so each one is a cold miss compiled on a pool worker. A 1 KiB
  // id in every request, echoed by its submitted reply, fills the
  // server's socket buffer after about two hundred unread replies (as in
  // the test above), however fast the compiles finish.
  int Budget = 0;
  int Stalled[2];
  for (int &Fd : Stalled) {
    std::string Burst;
    for (int I = 0; I < 4000; ++I) {
      Json Compile = compileAsyncRequest(L, /*Id=*/0, ++Budget);
      Compile.set("id", std::string(1024, 'i'));
      appendFrame(Burst, Compile.dump());
    }
    Fd = robustness::rawConnect(SocketPath);
    ASSERT_GE(Fd, 0);
    EXPECT_LT(sendUntilStalled(Fd, Burst, /*StallMillis=*/500), Burst.size());
  }

  auto Good = makeClient("well-behaved");
  CompileOptions Fresh;
  Fresh.MaxCandidates = ++Budget;
  std::string Err;
  std::optional<CompileClient::AsyncHandle> H =
      Good->submitConv("x86", L, Fresh, &Err);
  ASSERT_TRUE(H.has_value()) << Err;
  std::string WaitErr;
  std::future<std::optional<CompileClient::CompileResult>> Waited =
      std::async(std::launch::async, [&] { return Good->wait(*H, &WaitErr); });
  EXPECT_EQ(Waited.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "a stalled reader held the well-behaved client for over 5 s";

  for (int Fd : Stalled)
    ::close(Fd);
  std::optional<CompileClient::CompileResult> R = Waited.get();
  ASSERT_TRUE(R.has_value()) << WaitErr;
  EXPECT_FALSE(R->Cached);
  // Every request the server read was a cold miss: none resolved inline
  // and none joined another's compile.
  SessionStats S = Server->session().sessionStats();
  EXPECT_EQ(S.InlineReadyHits, 0u);
  EXPECT_EQ(S.ContinuationJoins, 0u);
  EXPECT_GT(S.FreshDispatches, 100u);
}

/// stop() ends a connection whose client is connected but not reading.
/// The replies to thousands of pipelined stats requests fill the socket,
/// so the connection thread waits for room to write; stop() must wake it
/// and give the write up, not wait out the 30 s send timeout.
TEST_F(ServerTest, StopDoesNotWaitOnAConnectedStalledReader) {
  startServer();
  int Stalled = robustness::rawConnect(SocketPath);
  ASSERT_GE(Stalled, 0);
  Json Stats = Json::object();
  Stats.set("type", "stats");
  std::string Burst;
  for (int I = 0; I < 4000; ++I)
    appendFrame(Burst, Stats.dump());
  sendUntilStalled(Stalled, Burst, /*StallMillis=*/500);

  // The server is stuck in a write once its request count grows only by
  // the monitor's own stats request, well short of the burst.
  auto Monitor = makeClient("monitor");
  auto Requests = [&Monitor] {
    std::optional<Json> S = Monitor->stats(false);
    return S ? S->integer("requests") : -1;
  };
  int64_t Served = -2;
  for (int64_t Seen = Requests(); Seen != Served + 1;) {
    Served = Seen;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Seen = Requests();
  }
  EXPECT_LT(Served, 4000);

  auto T0 = std::chrono::steady_clock::now();
  Server->stop();
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_LT(Seconds, 2.0) << "stop() waited on a client that stopped reading";
  ::close(Stalled);
}

/// A client that pipelines requests with large replies and never reads
/// holds a bounded amount of server memory. One 64 KiB read brings in
/// thousands of metrics requests; the server flushes whenever a chunk of
/// replies is queued, so once the socket is full it stops reading after
/// about a socket buffer plus a chunk of replies, not after the whole
/// read's worth (which would be megabytes of replies built in memory).
TEST_F(ServerTest, UnreadPipelinedRepliesStallReadsWithinAChunk) {
  startServer();
  Json Metrics = Json::object();
  Metrics.set("type", "metrics");
  std::string Request;
  appendFrame(Request, Metrics.dump());

  // One reply's size, measured on its own connection.
  size_t ReplyBytes = 0;
  {
    int Fd = robustness::rawConnect(SocketPath);
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(writeAll(Fd, Request));
    std::string Payload;
    ASSERT_EQ(FrameReader(Fd).next(Payload), FrameStatus::Ok);
    ReplyBytes = Payload.size() + 4;
    ::close(Fd);
  }

  int Stalled = robustness::rawConnect(SocketPath);
  ASSERT_GE(Stalled, 0);
  int SndBuf = 0;
  socklen_t Len = sizeof(SndBuf);
  ASSERT_EQ(::getsockopt(Stalled, SOL_SOCKET, SO_SNDBUF, &SndBuf, &Len), 0);
  std::string Burst;
  for (int I = 0; I < 4000; ++I)
    Burst += Request;
  sendUntilStalled(Stalled, Burst, /*StallMillis=*/500);

  // Settled once the request count grows only by the monitor's own.
  auto Monitor = makeClient("monitor");
  auto Requests = [&Monitor] {
    std::optional<Json> S = Monitor->stats(false);
    return S ? S->integer("requests") : -1;
  };
  int64_t Served = -2;
  for (int64_t Seen = Requests(); Seen != Served + 1;) {
    Served = Seen;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Seen = Requests();
  }
  // The server's socket buffer is sized like the client's, and a full
  // one takes at most one more send of half its size. Twice that plus a
  // chunk of replies still sits far below one read's worth of requests
  // (64 KiB / Request.size(), near 3000).
  size_t Bound = (2 * static_cast<size_t>(SndBuf) + FrameReader::ChunkBytes) /
                     ReplyBytes +
                 8;
  ASSERT_LT(Bound, FrameReader::ChunkBytes / Request.size());
  EXPECT_GT(Served, 0);
  EXPECT_LE(static_cast<size_t>(Served), Bound)
      << "reply bytes " << ReplyBytes << ", socket buffer " << SndBuf;
  ::close(Stalled);
}

/// The wire order a raw reader sees on one pipelined connection: warm
/// hits (resolved inline, on the connection thread), cold misses (pool
/// workers), gated joins (the winner's thread) and stats requests, all
/// in one burst. Replies come back in request order, and every result comes
/// after the submitted reply that names its ticket. CompileClient parks
/// early notifications, so only a raw reader can see a reordering.
TEST_F(ServerTest, PipelinedFramesKeepRequestOrderAndTicketOrder) {
  startServer();
  std::promise<void> Gate;
  std::vector<ConvLayer> Gated = syntheticLayers(1, 112);
  GatedCompiles Blocked(Server->session(), Gate.get_future().share(), Gated,
                        /*SecondsBase=*/700.0);
  std::vector<ConvLayer> Warm = syntheticLayers(3, 16);
  std::vector<ConvLayer> Cold = syntheticLayers(6, 400);
  auto Warmer = makeClient("warmer");
  std::string Err;
  for (const ConvLayer &W : Warm)
    ASSERT_TRUE(Warmer->compileConv("x86", W, {}, &Err).has_value()) << Err;

  // Each round of submissions ends in a stats request, a reply that
  // carries no ticket.
  std::string Burst;
  std::vector<std::string> ReplyTypes; // Index = request id - 1.
  uint64_t Tickets = 0;
  auto Submit = [&](const ConvLayer &Layer) {
    ReplyTypes.push_back("submitted");
    Json J = compileAsyncRequest(Layer,
                                 static_cast<int64_t>(ReplyTypes.size()));
    appendFrame(Burst, J.dump());
    ++Tickets;
  };
  for (size_t I = 0; I < Cold.size(); ++I) {
    Submit(Warm[I % Warm.size()]);
    Submit(Cold[I]);
    if (I % 2 == 0)
      Submit(Gated[0]);
    ReplyTypes.push_back("stats_result");
    Json Stats = Json::object();
    Stats.set("type", "stats");
    Stats.set("id", static_cast<int64_t>(ReplyTypes.size()));
    appendFrame(Burst, Stats.dump());
  }

  int Fd = robustness::rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  timeval Timeout = {30, 0}; // A lost frame fails the test, not hangs it.
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  ASSERT_TRUE(writeAll(Fd, Burst));

  FrameReader Reader(Fd);
  size_t Replies = 0;
  std::set<uint64_t> Submitted, Resolved;
  auto ReadOne = [&] {
    std::string Payload;
    ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
    std::optional<Json> Frame = Json::parse(Payload);
    ASSERT_TRUE(Frame.has_value()) << Payload;
    if (isNotification(*Frame)) {
      uint64_t T = static_cast<uint64_t>(Frame->integer("ticket"));
      EXPECT_TRUE(Submitted.count(T)) << "result before submitted " << T;
      EXPECT_TRUE(Resolved.insert(T).second) << "second result for " << T;
      EXPECT_EQ(Frame->get("error"), nullptr) << Payload;
      return;
    }
    ASSERT_LT(Replies, ReplyTypes.size()) << Payload;
    EXPECT_EQ(Frame->integer("id"), static_cast<int64_t>(Replies + 1));
    EXPECT_EQ(Frame->str("type"), ReplyTypes[Replies]) << Payload;
    if (Frame->str("type") == "submitted")
      Submitted.insert(static_cast<uint64_t>(Frame->integer("ticket")));
    ++Replies;
  };
  while (Replies < ReplyTypes.size() && !HasFatalFailure())
    ReadOne();
  Gate.set_value();
  while (Resolved.size() < Tickets && !HasFatalFailure())
    ReadOne();
  EXPECT_EQ(Submitted.size(), Tickets);
  ::close(Fd);
  Blocked.join();
}

/// A burst of compile_async frames larger than one read chunk, sent with
/// one write: the server takes it in several reads and answers each
/// read's requests with one flush, and still every submitted reply comes
/// back in request order and every ticket resolves exactly once.
TEST_F(ServerTest, BurstLargerThanAReadChunkKeepsRequestOrder) {
  startServer();
  std::vector<ConvLayer> Layers = syntheticLayers(6, 24);
  std::string Burst;
  int64_t Requests = 0;
  while (Burst.size() <= 2 * FrameReader::ChunkBytes) {
    ++Requests;
    const ConvLayer &L = Layers[static_cast<size_t>(Requests) % Layers.size()];
    appendFrame(Burst, compileAsyncRequest(L, Requests).dump());
  }

  int Fd = robustness::rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  timeval Timeout = {30, 0}; // A lost frame fails the test, not hangs it.
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  // One writeAll; its own thread, so replies are read while it runs.
  std::atomic<bool> Wrote{false};
  std::thread Writer([&] { Wrote = writeAll(Fd, Burst); });

  FrameReader Reader(Fd);
  int64_t Replies = 0;
  std::set<uint64_t> Submitted, Resolved;
  auto ReadAll = [&] {
    while (Replies < Requests ||
           Resolved.size() < static_cast<size_t>(Requests)) {
      std::string Payload;
      ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
      std::optional<Json> Frame = Json::parse(Payload);
      ASSERT_TRUE(Frame.has_value()) << Payload;
      if (isNotification(*Frame)) {
        uint64_t T = static_cast<uint64_t>(Frame->integer("ticket"));
        EXPECT_TRUE(Submitted.count(T)) << "result before submitted " << T;
        EXPECT_TRUE(Resolved.insert(T).second) << "second result for " << T;
        EXPECT_EQ(Frame->get("error"), nullptr) << Payload;
        continue;
      }
      ASSERT_EQ(Frame->str("type"), "submitted") << Payload;
      ASSERT_EQ(Frame->integer("id"), Replies + 1) << Payload;
      Submitted.insert(static_cast<uint64_t>(Frame->integer("ticket")));
      ++Replies;
    }
  };
  ReadAll();
  if (HasFatalFailure())
    ::shutdown(Fd, SHUT_RDWR); // Unblocks the writer.
  Writer.join();
  EXPECT_TRUE(Wrote.load());
  EXPECT_EQ(Replies, Requests);
  EXPECT_EQ(Submitted.size(), static_cast<size_t>(Requests));
  EXPECT_EQ(Resolved, Submitted);
  ::close(Fd);
}

//===----------------------------------------------------------------------===//
// Fabric: HMAC, endpoints, TCP auth, peer cache exchange, failover
//===----------------------------------------------------------------------===//

TEST(Fabric, HmacMatchesRfc4231Vectors) {
  // RFC 4231 test case 1.
  std::string Key1(20, '\x0b');
  EXPECT_EQ(
      hmacHex(Key1, "Hi There"),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2: a key shorter than the block size.
  EXPECT_EQ(
      hmacHex("Jefe", "what do ya want for nothing?"),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 6: a 131-byte key, longer than the SHA-256 block — forces
  // the pre-hash path.
  std::string Key6(131, '\xaa');
  EXPECT_EQ(
      hmacHex(Key6, "Test Using Larger Than Block-Size Key - Hash Key First"),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");

  EXPECT_TRUE(constantTimeEquals("abc", "abc"));
  EXPECT_FALSE(constantTimeEquals("abc", "abd"));
  EXPECT_FALSE(constantTimeEquals("abc", "ab"));
  // Nonces are fresh every call (the property the challenge relies on).
  EXPECT_NE(randomNonceHex(), randomNonceHex());
  EXPECT_EQ(randomNonceHex(16).size(), 32u);
}

TEST(Fabric, EndpointParsing) {
  std::optional<Endpoint> Ep = parseEndpoint("example.com:8080");
  ASSERT_TRUE(Ep.has_value());
  EXPECT_EQ(Ep->Host, "example.com");
  EXPECT_EQ(Ep->Port, 8080);
  EXPECT_EQ(Ep->display(), "example.com:8080");

  Ep = parseEndpoint("[::1]:9000");
  ASSERT_TRUE(Ep.has_value());
  EXPECT_EQ(Ep->Host, "::1");
  EXPECT_EQ(Ep->Port, 9000);
  EXPECT_EQ(Ep->display(), "[::1]:9000");
  EXPECT_EQ(parseEndpoint(Ep->display())->Host, "::1");

  Ep = parseEndpoint(":7000"); // Any-host listen form.
  ASSERT_TRUE(Ep.has_value());
  EXPECT_TRUE(Ep->Host.empty());

  std::string Err;
  EXPECT_FALSE(parseEndpoint("nohost", &Err).has_value());
  EXPECT_FALSE(parseEndpoint("host:", &Err).has_value());
  EXPECT_FALSE(parseEndpoint("host:notaport", &Err).has_value());
  EXPECT_FALSE(parseEndpoint("host:99999", &Err).has_value());
  EXPECT_FALSE(parseEndpoint("[::1:9", &Err).has_value());

  EXPECT_TRUE(looksLikeUnixPath("/tmp/unit.sock"));
  EXPECT_TRUE(looksLikeUnixPath("./rel.sock"));
  EXPECT_FALSE(looksLikeUnixPath("host:1234"));
  EXPECT_FALSE(looksLikeUnixPath("127.0.0.1:80"));
}

TEST(Frames, DribbledBytesReassembleIntoOneFrame) {
  // A slow sender delivering one byte at a time must not confuse the
  // reader: short reads are part of TCP's contract, not an error.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const std::string Payload = "{\"type\":\"stats\"}";
  std::thread Dribbler([&] {
    uint32_t Len = static_cast<uint32_t>(Payload.size());
    const char Header[4] = {
        static_cast<char>(Len >> 24), static_cast<char>(Len >> 16),
        static_cast<char>(Len >> 8), static_cast<char>(Len)};
    for (char C : std::string(Header, 4) + Payload) {
      ASSERT_EQ(::write(Fds[0], &C, 1), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  FrameReader Reader(Fds[1]);
  std::string Got;
  EXPECT_EQ(Reader.next(Got), FrameStatus::Ok);
  EXPECT_EQ(Got, Payload);
  Dribbler.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Frames, PipesWorkViaTheNotASocketFallback) {
  // writeFrame prefers send(MSG_NOSIGNAL) but falls back to write() on
  // ENOTSOCK so frame I/O also runs over pipes.
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  EXPECT_TRUE(writeFrame(P[1], "{\"over\":\"a pipe\"}"));
  FrameReader Reader(P[0]);
  std::string Got;
  EXPECT_EQ(Reader.next(Got), FrameStatus::Ok);
  EXPECT_EQ(Got, "{\"over\":\"a pipe\"}");
  ::close(P[1]);
  EXPECT_EQ(Reader.next(Got), FrameStatus::Eof);
  ::close(P[0]);
}

TEST_F(ServerTest, TcpListenerRequiresASecret) {
  // An open TCP compile server would be a remote code-shaped service with
  // no gate; refusing to start beats silently listening unauthenticated.
  for (bool ViaPeers : {false, true}) {
    ServerConfig Config;
    Config.SocketPath = tempPath(".sock");
    if (ViaPeers)
      Config.Peers.push_back("127.0.0.1:1");
    else
      Config.TcpListen = "127.0.0.1:0";
    CompileServer NoSecret(std::move(Config));
    std::string Err;
    EXPECT_FALSE(NoSecret.start(&Err));
    EXPECT_NE(Err.find("secret"), std::string::npos) << Err;
  }
}

TEST_F(ServerTest, WrongSecretIsRejectedAndCounted) {
  const std::string Secret = "fleet-secret";
  ServerConfig Config;
  Config.TcpListen = "127.0.0.1:0";
  Config.Secret = Secret;
  startServer(std::move(Config));
  ASSERT_NE(Server->tcpPort(), 0);
  Endpoint Ep{"127.0.0.1", Server->tcpPort()};

  // Raw exchange: the challenge carries a nonce, never the secret; a
  // proof computed with the wrong secret gets an error frame, then EOF.
  int Fd = dialTcp(Ep);
  ASSERT_GE(Fd, 0);
  FrameReader Reader(Fd);
  std::string Payload;
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  std::optional<Json> Challenge = Json::parse(Payload);
  ASSERT_TRUE(Challenge.has_value());
  EXPECT_EQ(Challenge->str("type"), "challenge");
  std::string Nonce = Challenge->str("nonce");
  EXPECT_FALSE(Nonce.empty());
  EXPECT_EQ(Payload.find(Secret), std::string::npos);

  Json Auth = Json::object();
  Auth.set("type", "auth");
  Auth.set("proof", hmacHex("not-the-secret", Nonce));
  ASSERT_TRUE(writeFrame(Fd, Auth.dump()));
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  std::optional<Json> Rejection = Json::parse(Payload);
  ASSERT_TRUE(Rejection.has_value());
  EXPECT_EQ(Rejection->str("type"), "error");
  EXPECT_EQ(Reader.next(Payload), FrameStatus::Eof);
  ::close(Fd);

  // The client API refuses the endpoint the same way.
  CompileClient Bad;
  std::string Err;
  EXPECT_FALSE(Bad.connect({Ep.display()}, "also-wrong", &Err));

  // The right secret sails through, and the daemon kept count.
  CompileClient Good;
  ASSERT_TRUE(Good.connect({Ep.display()}, Secret, &Err)) << Err;
  ASSERT_TRUE(Good.hello("tcp-client", 0, &Err).has_value()) << Err;
  std::optional<Json> Stats = Good.stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *Fabric = Stats->get("fabric");
  ASSERT_NE(Fabric, nullptr);
  EXPECT_EQ(Fabric->integer("auth_failures"), 2);
  EXPECT_EQ(Fabric->integer("tcp_port"),
            static_cast<int64_t>(Server->tcpPort()));

  // The authenticated TCP connection is a full-fledged client link.
  std::optional<CompileClient::CompileResult> R =
      Good.compileConv("x86", makeResnet18().Convs[0], {}, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
}

TEST_F(ServerTest, TwoDaemonsOneColdTuneClusterwideViaPeerFetch) {
  const std::string Secret = "warm-handoff";

  // Daemon A: the established fleet member, reachable over TCP.
  ServerConfig ConfigA;
  ConfigA.TcpListen = "127.0.0.1:0";
  ConfigA.Secret = Secret;
  startServer(std::move(ConfigA));
  ASSERT_NE(Server->tcpPort(), 0);

  // Cold-compile four distinct kernels on A: every tune in this test
  // happens here, once per distinct structural key.
  std::vector<ConvLayer> Layers = syntheticLayers(4, 112);
  uint64_t TunesBefore = tunerInvocations();
  auto ClientA = makeClient("fleet-a");
  std::string Err;
  for (const ConvLayer &L : Layers) {
    std::optional<CompileClient::CompileResult> R =
        ClientA->compileConv("x86", L, {}, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_FALSE(R->Cached);
  }
  EXPECT_EQ(tunerInvocations() - TunesBefore, Layers.size());

  // Daemon B joins the fleet with A as its peer.
  ServerConfig ConfigB;
  ConfigB.SocketPath = tempPath(".sock");
  ConfigB.Secret = Secret;
  ConfigB.Peers.push_back(Endpoint{"127.0.0.1", Server->tcpPort()}.display());
  CompileServer B(ConfigB);
  ASSERT_TRUE(B.start(&Err)) << Err;

  // The same four kernels on B: served by the fleet, tuned by nobody —
  // the peer warm-sync or the cold-miss fetch covers every key, so the
  // cluster-wide tune count stays at one per distinct structural key.
  uint64_t TunesMid = tunerInvocations();
  CompileClient ClientB;
  ASSERT_TRUE(ClientB.connect(ConfigB.SocketPath, &Err)) << Err;
  ASSERT_TRUE(ClientB.hello("fleet-b", 0, &Err).has_value()) << Err;
  for (const ConvLayer &L : Layers) {
    std::optional<CompileClient::CompileResult> R =
        ClientB.compileConv("x86", L, {}, &Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_TRUE(R->Cached) << L.Name;
  }
  EXPECT_EQ(tunerInvocations() - TunesMid, 0u);
  EXPECT_EQ(tunerInvocations() - TunesBefore, Layers.size());

  // The fabric counters narrate the exchange: B pulled the entries (bulk
  // warm-sync, targeted fetches, or a mix), and A served them.
  std::optional<Json> StatsB = ClientB.stats(false, &Err);
  ASSERT_TRUE(StatsB.has_value()) << Err;
  const Json *FabricB = StatsB->get("fabric");
  ASSERT_NE(FabricB, nullptr);
  EXPECT_EQ(FabricB->integer("peers_configured"), 1);
  EXPECT_EQ(FabricB->integer("peers_connected"), 1);
  EXPECT_GE(FabricB->integer("entries_fetched") +
                FabricB->integer("fetch_hits"),
            static_cast<int64_t>(Layers.size()));

  std::optional<Json> StatsA = ClientA->stats(false, &Err);
  ASSERT_TRUE(StatsA.has_value()) << Err;
  const Json *FabricA = StatsA->get("fabric");
  ASSERT_NE(FabricA, nullptr);
  EXPECT_GE(FabricA->integer("fetches_served"), 1);
  EXPECT_GE(FabricA->integer("entries_served"),
            static_cast<int64_t>(Layers.size()));

  // Push direction: a kernel tuned on B reaches A without A ever asking.
  ConvLayer Fresh{"fresh-on-b", 96, 10, 10, 96, 3, 3, 1, 1, 1, false};
  std::optional<CompileClient::CompileResult> OnB =
      ClientB.compileConv("x86", Fresh, {}, &Err);
  ASSERT_TRUE(OnB.has_value()) << Err;
  EXPECT_FALSE(OnB->Cached);
  // The pusher flushes on its own cadence; wait for A to accept.
  bool Accepted = false;
  for (int I = 0; I < 100 && !Accepted; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    StatsA = ClientA->stats(false, &Err);
    ASSERT_TRUE(StatsA.has_value()) << Err;
    Accepted = StatsA->get("fabric")->integer("entries_accepted") >= 1;
  }
  EXPECT_TRUE(Accepted);
  uint64_t TunesLate = tunerInvocations();
  std::optional<CompileClient::CompileResult> OnA =
      ClientA->compileConv("x86", Fresh, {}, &Err);
  ASSERT_TRUE(OnA.has_value()) << Err;
  EXPECT_TRUE(OnA->Cached);
  EXPECT_EQ(OnA->Report.Seconds, OnB->Report.Seconds);
  EXPECT_EQ(tunerInvocations() - TunesLate, 0u);
  B.stop();
}

TEST_F(ServerTest, MismatchedFingerprintPeersExchangeNothing) {
  const std::string Secret = "strict-fleet";
  ServerConfig ConfigA;
  ConfigA.TcpListen = "127.0.0.1:0";
  ConfigA.Secret = Secret;
  startServer(std::move(ConfigA));

  // A kernel A has and B will want.
  ConvLayer Shared{"disputed", 72, 12, 12, 72, 3, 3, 1, 1, 1, false};
  auto ClientA = makeClient("strict-a");
  std::string Err;
  ASSERT_TRUE(ClientA->compileConv("x86", Shared, {}, &Err).has_value())
      << Err;

  // Daemon B claims a different persistence fingerprint — as if it ran a
  // different tuner version. The peers connect but must exchange nothing:
  // a cached report is only valid under the exact fingerprint it was
  // tuned under.
  ServerConfig ConfigB;
  ConfigB.SocketPath = tempPath(".sock");
  ConfigB.Secret = Secret;
  ConfigB.Peers.push_back(Endpoint{"127.0.0.1", Server->tcpPort()}.display());
  ConfigB.PeerFingerprintOverride = "tuner-vNEXT-incompatible";
  CompileServer B(ConfigB);
  ASSERT_TRUE(B.start(&Err)) << Err;

  uint64_t TunesBefore = tunerInvocations();
  CompileClient ClientB;
  ASSERT_TRUE(ClientB.connect(ConfigB.SocketPath, &Err)) << Err;
  ASSERT_TRUE(ClientB.hello("strict-b", 0, &Err).has_value()) << Err;
  std::optional<CompileClient::CompileResult> R =
      ClientB.compileConv("x86", Shared, {}, &Err);
  ASSERT_TRUE(R.has_value()) << Err;
  // B tuned locally: the mismatched link yielded nothing.
  EXPECT_FALSE(R->Cached);
  EXPECT_EQ(tunerInvocations() - TunesBefore, 1u);

  std::optional<Json> StatsA = ClientA->stats(false, &Err);
  ASSERT_TRUE(StatsA.has_value()) << Err;
  EXPECT_EQ(StatsA->get("fabric")->integer("entries_served"), 0);
  EXPECT_EQ(StatsA->get("fabric")->integer("entries_accepted"), 0);
  B.stop();

  // Raw frames with a bogus fingerprint meet the same wall: empty
  // entries on fetch, zero accepted on push — replies, not errors, so a
  // heterogeneous fleet degrades to local tuning instead of flapping.
  Endpoint Ep{"127.0.0.1", Server->tcpPort()};
  int Fd = dialTcp(Ep);
  ASSERT_GE(Fd, 0);
  FrameReader Reader(Fd);
  ASSERT_TRUE(answerAuthChallenge(Reader, Secret, &Err)) << Err;

  Json Fetch = Json::object();
  Fetch.set("type", "fetch_cache");
  Fetch.set("fingerprint", "bogus");
  ASSERT_TRUE(writeFrame(Fd, Fetch.dump()));
  std::string Payload;
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  std::optional<Json> Reply = Json::parse(Payload);
  ASSERT_TRUE(Reply.has_value());
  EXPECT_EQ(Reply->str("type"), "cache_entries");
  ASSERT_TRUE(Reply->get("entries")->isArray());
  EXPECT_EQ(Reply->get("entries")->items().size(), 0u);

  Json Push = Json::object();
  Push.set("type", "push_cache");
  Push.set("fingerprint", "bogus");
  Json Entries = Json::array();
  Json Entry = Json::object();
  Entry.set("key", "x86|whatever");
  Entry.set("report", toJson(KernelReport{}));
  Entries.push(std::move(Entry));
  Push.set("entries", std::move(Entries));
  ASSERT_TRUE(writeFrame(Fd, Push.dump()));
  ASSERT_EQ(Reader.next(Payload), FrameStatus::Ok);
  Reply = Json::parse(Payload);
  ASSERT_TRUE(Reply.has_value());
  EXPECT_EQ(Reply->str("type"), "cache_pushed");
  EXPECT_EQ(Reply->integer("accepted"), 0);
  ::close(Fd);
}

/// Request spans of \p Dump (a dump_trace reply) whose note carries
/// \p Note.
size_t requestSpansNoted(const Json &Dump, const std::string &Note) {
  size_t N = 0;
  for (const Json &Ev : Dump.get("trace")->get("traceEvents")->items())
    if (Ev.str("name") == "request" &&
        Ev.get("args")->str("note").find(Note) != std::string::npos)
      ++N;
  return N;
}

TEST_F(ServerTest, TwoDaemonsEachTraceOnlyTheirOwnRequests) {
  // Two tracing daemons in one process, A started first. A's request
  // trees must land in A's recorder: a span never borrows whichever
  // recorder was created last.
  startServer();
  ServerConfig ConfigB;
  ConfigB.SocketPath = tempPath(".sock");
  CompileServer B(ConfigB);
  std::string Err;
  ASSERT_TRUE(B.start(&Err)) << Err;

  auto ClientA = makeClient("trace-a");
  ASSERT_TRUE(ClientA->stats(false, &Err).has_value()) << Err;
  // Same connection: the stats request's span closed before this
  // dump_trace was read.
  std::optional<Json> DumpA = ClientA->dumpTrace(&Err);
  ASSERT_TRUE(DumpA.has_value()) << Err;
  EXPECT_EQ(requestSpansNoted(*DumpA, "type=stats"), 1u);

  CompileClient ClientB;
  ASSERT_TRUE(ClientB.connect(ConfigB.SocketPath, &Err)) << Err;
  std::optional<Json> DumpB = ClientB.dumpTrace(&Err);
  ASSERT_TRUE(DumpB.has_value()) << Err;
  EXPECT_TRUE(DumpB->boolean("enabled", false));
  EXPECT_EQ(requestSpansNoted(*DumpB, "type=stats"), 0u);
  B.stop();
}

/// connect() dials an endpoint list in order and keeps the first that
/// accepts: a dead Unix path ahead of a live TCP daemon is skipped, and
/// the connection it lands on serves cold and warm compiles alike.
TEST_F(ServerTest, EndpointListSkipsADeadEndpointAtConnect) {
  const std::string Secret = "endpoint-list-secret";
  ServerConfig Config;
  Config.TcpListen = "127.0.0.1:0";
  Config.Secret = Secret;
  startServer(std::move(Config));
  std::string TcpEp = Endpoint{"127.0.0.1", Server->tcpPort()}.display();

  // Endpoint #1: a Unix path nothing listens on.
  std::string DeadPath = tempPath(".sock");

  CompileClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect({DeadPath, TcpEp}, Secret, &Err)) << Err;
  ASSERT_TRUE(Client.hello("nomad", 0, &Err).has_value()) << Err;

  ConvLayer L{"endpoint-list", 48, 12, 12, 48, 3, 3, 1, 1, 1, false};
  std::optional<CompileClient::CompileResult> Cold =
      Client.compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Cold.has_value()) << Err;
  EXPECT_FALSE(Cold->Cached);
  std::optional<CompileClient::CompileResult> Warm =
      Client.compileConv("x86", L, {}, &Err);
  ASSERT_TRUE(Warm.has_value()) << Err;
  EXPECT_TRUE(Warm->Cached);
  EXPECT_EQ(Warm->Report.Seconds, Cold->Report.Seconds);
  EXPECT_EQ(Warm->Report.Tensorized, Cold->Report.Tensorized);
  EXPECT_EQ(Warm->Report.BestCandidateIndex, Cold->Report.BestCandidateIndex);
  EXPECT_EQ(Warm->Report.CandidatesTried, Cold->Report.CandidatesTried);
  EXPECT_EQ(Warm->Report.IntrinsicName, Cold->Report.IntrinsicName);
  Client.close();
}

//===----------------------------------------------------------------------===//
// Observability: metrics, dump_trace, stats consistency
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, WelcomeAdvertisesMetricsAndStatsCarryBuildAndPid) {
  startServer();
  CompileClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(SocketPath, &Err)) << Err;
  std::optional<Json> Welcome = Client.hello("obs-hello", 0, &Err);
  ASSERT_TRUE(Welcome.has_value()) << Err;
  EXPECT_TRUE(Welcome->boolean("metrics", false));

  std::optional<Json> Stats = Client.stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  // The build string identifies version+sha for fleet dashboards; the
  // pid lets an operator find the daemon from a scrape. Server and test
  // share a process here, so the pid is exact.
  EXPECT_EQ(Stats->str("build").rfind("unit-", 0), 0u) << Stats->str("build");
  EXPECT_EQ(Stats->integer("pid"), static_cast<int64_t>(::getpid()));
}

TEST_F(ServerTest, MetricsMessageExposesEveryHistogramFamily) {
  startServer();
  auto Client = makeClient("metrics-client");
  ConvLayer L = makeResnet18().Convs[2];
  std::string Err;
  // One cold compile then one warm hit populates two families.
  ASSERT_TRUE(Client->compileConv("x86", L, {}, &Err).has_value()) << Err;
  ASSERT_TRUE(Client->compileConv("x86", L, {}, &Err).has_value()) << Err;

  std::optional<Json> M = Client->metrics(&Err);
  ASSERT_TRUE(M.has_value()) << Err;
  EXPECT_EQ(M->str("type"), "metrics");
  EXPECT_EQ(M->str("build").rfind("unit-", 0), 0u);
  const Json *Hists = M->get("histograms");
  ASSERT_TRUE(Hists);
  for (const char *Family :
       {"unit_compile_cold_seconds", "unit_compile_warm_seconds",
        "unit_compile_join_seconds", "unit_frame_seconds",
        "unit_peer_fetch_seconds", "unit_tuner_candidate_seconds"}) {
    const Json *H = Hists->get(Family);
    ASSERT_TRUE(H) << Family;
    EXPECT_GE(H->num("count", -1), 0) << Family;
    EXPECT_GE(H->num("sum", -1), 0) << Family;
    EXPECT_GE(H->num("p99", -1), H->num("p50", -1)) << Family;
    const Json *Buckets = H->get("buckets");
    ASSERT_TRUE(Buckets) << Family;
    // Bucket counts are cumulative and end at the +Inf bucket, whose
    // count equals the family total (the Prometheus histogram shape).
    double Prev = 0;
    bool SawInf = false;
    for (const Json &B : Buckets->items()) {
      double C = B.num("count", -1);
      EXPECT_GE(C, Prev) << Family;
      Prev = C;
      if (B.str("le") == "+Inf") {
        SawInf = true;
        EXPECT_EQ(C, H->num("count", -1)) << Family;
      }
    }
    EXPECT_TRUE(SawInf) << Family;
  }
  // The compiles above are visible: one cold, one warm, and the tuner
  // measured at least one candidate for the cold tune.
  EXPECT_GE(Hists->get("unit_compile_cold_seconds")->num("count", 0), 1.0);
  EXPECT_GE(Hists->get("unit_compile_warm_seconds")->num("count", 0), 1.0);
  EXPECT_GE(Hists->get("unit_tuner_candidate_seconds")->num("count", 0), 1.0);
  EXPECT_GE(Hists->get("unit_frame_seconds")->num("count", 0), 2.0);
}

TEST_F(ServerTest, DumpTraceYieldsConnectedSpanTree) {
  startServer();
  auto Client = makeClient("tracer");
  ConvLayer L = makeResnet18().Convs[5];
  std::string Err;
  // A cold compile_async touches the whole lifecycle: admission,
  // resolve, pool compile, codegen, fulfill, notification write.
  std::optional<CompileClient::AsyncHandle> H =
      Client->submitConv("x86", L, {}, &Err);
  ASSERT_TRUE(H.has_value()) << Err;
  ASSERT_TRUE(Client->wait(*H, &Err).has_value()) << Err;

  // The notification unblocks wait() before the worker's enclosing
  // compile / notification_write spans close (a span records on scope
  // exit), so give the trace a few milliseconds to settle.
  std::optional<Json> Dump;
  std::set<int64_t> Ids;
  std::set<std::string> Names;
  const Json *Events = nullptr;
  for (int Attempt = 0; Attempt < 200; ++Attempt) {
    Dump = Client->dumpTrace(&Err);
    ASSERT_TRUE(Dump.has_value()) << Err;
    EXPECT_TRUE(Dump->boolean("enabled", false));
    const Json *Trace = Dump->get("trace");
    ASSERT_TRUE(Trace);
    Events = Trace->get("traceEvents");
    ASSERT_TRUE(Events);
    Ids.clear();
    Names.clear();
    for (const Json &Ev : Events->items()) {
      EXPECT_EQ(Ev.str("ph"), "X");
      EXPECT_EQ(Ev.integer("pid"), 1);
      EXPECT_GT(Ev.integer("tid"), 0);
      EXPECT_GE(Ev.num("dur", -1), 0);
      const Json *Args = Ev.get("args");
      ASSERT_TRUE(Args);
      Ids.insert(Args->integer("span"));
      Names.insert(Ev.str("name"));
    }
    if (Names.count("compile") && Names.count("notification_write"))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(Events->items().size(), 0u);
  // Connectivity: every non-root parent id resolves to a span in the
  // dump — one causal tree per request, no orphans.
  for (const Json &Ev : Events->items()) {
    int64_t Parent = Ev.get("args")->integer("parent");
    if (Parent != 0) {
      EXPECT_TRUE(Ids.count(Parent))
          << Ev.str("name") << " orphaned parent " << Parent;
    }
  }
  for (const char *Expected :
       {"request", "admission", "cache_resolve", "compile", "codegen",
        "core.inspect", "fulfill", "notification_write"})
    EXPECT_TRUE(Names.count(Expected)) << Expected;
  // The Inspector loop nests under codegen with no plumbing, and says
  // what it tried and what matched.
  std::map<int64_t, std::string> NameOf;
  for (const Json &Ev : Events->items())
    NameOf[Ev.get("args")->integer("span")] = Ev.str("name");
  for (const Json &Ev : Events->items())
    if (Ev.str("name") == "core.inspect") {
      EXPECT_EQ(NameOf[Ev.get("args")->integer("parent")], "codegen");
      std::string Note = Ev.get("args")->str("note");
      EXPECT_NE(Note.find("tried="), std::string::npos) << Note;
      EXPECT_NE(Note.find("matched="), std::string::npos) << Note;
    }
}

TEST_F(ServerTest, TraceDisabledServerStillServesMetrics) {
  ServerConfig Config;
  Config.TraceEnabled = false;
  startServer(std::move(Config));
  auto Client = makeClient("no-trace");
  ConvLayer L = makeResnet18().Convs[3];
  std::string Err;
  ASSERT_TRUE(Client->compileConv("x86", L, {}, &Err).has_value()) << Err;

  // Histograms are unconditional; only span recording is gated.
  std::optional<Json> M = Client->metrics(&Err);
  ASSERT_TRUE(M.has_value()) << Err;
  EXPECT_GE(M->get("histograms")
                ->get("unit_compile_cold_seconds")
                ->num("count", 0),
            1.0);

  std::optional<Json> Dump = Client->dumpTrace(&Err);
  ASSERT_TRUE(Dump.has_value()) << Err;
  EXPECT_FALSE(Dump->boolean("enabled", true));
  EXPECT_EQ(Dump->get("trace")->get("traceEvents")->items().size(), 0u);
}

/// The stats reply's key set, pinned to docs/SERVER.md ("stats" and
/// "Fabric observability"): dashboards parse these names, so adding,
/// renaming or dropping one must show up here and in the docs together.
TEST_F(ServerTest, StatsKeySetMatchesTheDocumentedContract) {
  startServer();
  auto Client = makeClient("golden", /*Budget=*/8);
  std::string Err;
  ASSERT_TRUE(
      Client->compileConv("x86", makeResnet18().Convs[1], {}, &Err).has_value())
      << Err;
  std::optional<Json> Stats = Client->stats(/*Detail=*/true, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;

  using Keys = std::set<std::string>;
  auto KeysOf = [](const Json *J) {
    Keys Out;
    if (J)
      for (const auto &Member : J->members())
        Out.insert(Member.first);
    return Out;
  };
  EXPECT_EQ(KeysOf(&*Stats),
            (Keys{"type", "id", "uptime_seconds", "build", "pid",
                  "connections", "requests", "compiled_kernels", "errors",
                  "tuner_invocations", "inflight_jobs", "tuner", "session",
                  "streaming", "fabric", "cache", "clients", "entries"}));
  EXPECT_EQ(KeysOf(Stats->get("tuner")),
            (Keys{"invocations", "candidates_scored", "pruned_candidates",
                  "transfer_seeds", "refit_active"}));
  EXPECT_EQ(KeysOf(Stats->get("session")),
            (Keys{"continuation_joins", "inline_ready_hits",
                  "fresh_dispatches"}));
  EXPECT_EQ(KeysOf(Stats->get("streaming")),
            (Keys{"tickets_issued", "notifications_delivered"}));
  EXPECT_EQ(KeysOf(Stats->get("fabric")),
            (Keys{"tcp_listen", "tcp_port", "auth_failures",
                  "peers_configured", "peers_connected", "entries_pushed",
                  "entries_fetched", "fetch_hits", "fetch_misses",
                  "fetches_served", "pushes_served", "entries_served",
                  "entries_accepted"}));
  EXPECT_EQ(KeysOf(Stats->get("cache")),
            (Keys{"entries", "bytes", "capacity", "hits", "misses",
                  "evictions"}));
  // A budgeted client that has compiled carries the two optional fields.
  const Json *Rows = Stats->get("clients");
  ASSERT_TRUE(Rows && Rows->isArray());
  const Json *Row = nullptr;
  for (const Json &R : Rows->items())
    if (R.str("client") == "golden")
      Row = &R;
  EXPECT_EQ(KeysOf(Row),
            (Keys{"client", "requests", "compile_requests",
                  "layers_requested", "layers_from_cache", "max_candidates",
                  "total_seconds", "max_seconds", "mean_seconds"}));
  const Json *Entries = Stats->get("entries");
  ASSERT_TRUE(Entries && !Entries->items().empty());
  EXPECT_EQ(KeysOf(&Entries->items()[0]), (Keys{"key", "bytes", "ready"}));
}

TEST_F(ServerTest, StatsHammerDeliveredNeverReadsAheadOfIssued) {
  startServer();
  // Four streaming clients pipeline fresh kernels while a fifth hammers
  // stats: in every snapshot delivered <= issued must hold (the stats
  // reader loads delivered before issued, so a racing delivery can never
  // make the snapshot read ahead), and issued must be monotonic across
  // polls.
  constexpr size_t Streamers = 4, LayersPerClient = 24;
  std::atomic<bool> Done{false};
  std::vector<std::thread> Clients;
  std::atomic<int> Failures{0};
  for (size_t C = 0; C < Streamers; ++C)
    Clients.emplace_back([&, C] {
      CompileClient Client;
      std::string E;
      if (!Client.connect(SocketPath, &E) ||
          !Client.hello("hammer-" + std::to_string(C), 0, &E)) {
        Failures.fetch_add(1);
        return;
      }
      std::vector<ConvLayer> Layers =
          syntheticLayers(LayersPerClient, 16 + 16 * C);
      for (const ConvLayer &L : Layers)
        if (!Client.submitConv("x86", L, {}, &E)) {
          Failures.fetch_add(1);
          return;
        }
      if (!Client.waitAll(&E))
        Failures.fetch_add(1);
    });

  std::thread Poller([&] {
    CompileClient Client;
    std::string E;
    if (!Client.connect(SocketPath, &E) ||
        !Client.hello("stats-poller", 0, &E)) {
      Failures.fetch_add(1);
      return;
    }
    int64_t LastIssued = 0;
    while (!Done.load()) {
      std::optional<Json> Stats = Client.stats(false, &E);
      if (!Stats) {
        Failures.fetch_add(1);
        return;
      }
      const Json *Streaming = Stats->get("streaming");
      if (!Streaming) {
        Failures.fetch_add(1);
        return;
      }
      int64_t Issued = Streaming->integer("tickets_issued");
      int64_t Delivered = Streaming->integer("notifications_delivered");
      EXPECT_LE(Delivered, Issued);
      EXPECT_GE(Issued, LastIssued);
      LastIssued = Issued;
    }
  });

  for (std::thread &T : Clients)
    T.join();
  Done.store(true);
  Poller.join();
  EXPECT_EQ(Failures.load(), 0);

  // Settled totals: every submitted ticket was issued and delivered.
  auto Client = makeClient("hammer-final");
  std::string Err;
  std::optional<Json> Stats = Client->stats(false, &Err);
  ASSERT_TRUE(Stats.has_value()) << Err;
  const Json *Streaming = Stats->get("streaming");
  ASSERT_TRUE(Streaming);
  EXPECT_EQ(Streaming->integer("tickets_issued"),
            static_cast<int64_t>(Streamers * LayersPerClient));
  EXPECT_EQ(Streaming->integer("notifications_delivered"),
            Streaming->integer("tickets_issued"));
}

} // namespace
