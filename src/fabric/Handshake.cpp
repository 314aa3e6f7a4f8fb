//===- fabric/Handshake.cpp - Shared-secret challenge handshake ----------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fabric/Handshake.h"

#include "fabric/Hmac.h"
#include "server/Protocol.h"

namespace unit {

namespace {

void setError(std::string *Err, const std::string &Message) {
  if (Err)
    *Err = Message;
}

} // namespace

bool runAuthChallenge(FrameReader &Frames, const std::string &Secret,
                      std::string *Err) {
  int Fd = Frames.fd();
  std::string Nonce = randomNonceHex();
  Json Challenge = Json::object();
  Challenge.set("type", "challenge");
  Challenge.set("nonce", Nonce);
  if (!writeFrame(Fd, Challenge.dump())) {
    setError(Err, "challenge write failed");
    return false;
  }

  std::string Payload;
  if (Frames.next(Payload) != FrameStatus::Ok) {
    setError(Err, "connection closed before auth");
    return false;
  }
  std::optional<Json> Auth = Json::parse(Payload);
  bool Ok = Auth.has_value() && Auth->str("type") == "auth" &&
            constantTimeEquals(Auth->str("proof"), hmacHex(Secret, Nonce));
  if (!Ok) {
    Json Error = Json::object();
    Error.set("type", "error");
    Error.set("message", "authentication failed");
    writeFrame(Fd, Error.dump()); // Best effort; the fd closes either way.
    setError(Err, "authentication failed");
    return false;
  }

  Json AuthOk = Json::object();
  AuthOk.set("type", "auth_ok");
  if (!writeFrame(Fd, AuthOk.dump())) {
    setError(Err, "auth_ok write failed");
    return false;
  }
  return true;
}

bool answerAuthChallenge(FrameReader &Frames, const std::string &Secret,
                         std::string *Err) {
  int Fd = Frames.fd();
  std::string Payload;
  if (Frames.next(Payload) != FrameStatus::Ok) {
    setError(Err, "connection closed before challenge");
    return false;
  }
  std::optional<Json> Challenge = Json::parse(Payload);
  if (!Challenge.has_value() || Challenge->str("type") != "challenge" ||
      Challenge->str("nonce").empty()) {
    setError(Err, "expected a challenge frame (is the endpoint a fabric "
                  "TCP listener?)");
    return false;
  }

  Json Auth = Json::object();
  Auth.set("type", "auth");
  Auth.set("proof", hmacHex(Secret, Challenge->str("nonce")));
  if (!writeFrame(Fd, Auth.dump())) {
    setError(Err, "auth write failed");
    return false;
  }

  if (Frames.next(Payload) != FrameStatus::Ok) {
    setError(Err, "connection closed during auth");
    return false;
  }
  std::optional<Json> Reply = Json::parse(Payload);
  if (!Reply.has_value() || Reply->str("type") != "auth_ok") {
    std::string Message =
        Reply.has_value() ? Reply->str("message") : std::string();
    setError(Err, Message.empty() ? "authentication rejected" : Message);
    return false;
  }
  return true;
}

} // namespace unit
