//===- fabric/Handshake.h - Shared-secret challenge handshake ------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gate on every TCP connection (fleet peers and remote clients
/// alike). The secret itself never crosses the wire: the server sends a
/// fresh random nonce in a `challenge` frame, the dialer answers with an
/// `auth` frame carrying HMAC-SHA256(secret, nonce) as hex, and the
/// server verifies with a constant-time compare — a wrong secret gets an
/// `error` frame and a closed connection, a passive listener learns only
/// a nonce and a one-use proof. Unix-socket connections skip this
/// entirely (filesystem permissions are their gate). Frame schemas are in
/// docs/SERVER.md, "Fleet".
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_FABRIC_HANDSHAKE_H
#define UNIT_FABRIC_HANDSHAKE_H

#include <string>

namespace unit {

class FrameReader;

/// Server side: send `challenge`, read `auth`, verify the proof. On
/// success replies `auth_ok` and returns true; on any failure (bad proof,
/// malformed frame, peer gone) replies with an `error` frame when the
/// socket still writes, fills \p Err, and returns false — the caller
/// closes the fd and counts the auth failure. Frames are read through
/// \p Frames, the socket's one reader, and written to its fd, so a
/// request pipelined right behind the proof stays buffered for the
/// caller.
bool runAuthChallenge(FrameReader &Frames, const std::string &Secret,
                      std::string *Err = nullptr);

/// Dialer side: read `challenge`, answer `auth` with the HMAC proof, wait
/// for `auth_ok`. Returns false (with \p Err) on rejection or transport
/// failure; the caller closes the fd. Reads through \p Frames, the
/// socket's one reader, and writes to its fd.
bool answerAuthChallenge(FrameReader &Frames, const std::string &Secret,
                         std::string *Err = nullptr);

} // namespace unit

#endif // UNIT_FABRIC_HANDSHAKE_H
