//===- tools/unit_serve.cpp - The compile-server daemon --------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// Runs a CompileServer until a client sends shutdown or SIGINT/SIGTERM
// arrives. See docs/SERVER.md for the protocol and a walkthrough.
//
//   unit_serve --socket /tmp/unit.sock [--cache /var/tmp/unit.kc]
//              [--persist-interval 30] [--threads N]
//              [--max-candidates N] [--cache-capacity N]
//              [--cache-bytes N]
//              [--listen-tcp HOST:PORT --secret-file FILE]
//              [--peer HOST:PORT]...
//
//===----------------------------------------------------------------------===//

#include "server/CompileServer.h"
#include "support/StringUtils.h"
#include "target/MachineOverlay.h"
#include "target/SpecFile.h"

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace unit;

namespace {

volatile std::sig_atomic_t Interrupted = 0;

void onSignal(int) { Interrupted = 1; }

/// Upper bounds of the numeric flags. A pool far wider than any host's
/// cores only costs threads; a persist interval is held to a year, well
/// short of the ~292 years at which the persist thread's nanosecond
/// steady-clock deadline overflows.
constexpr int64_t MaxThreads = 1024;
constexpr double MaxPersistSeconds = 365.0 * 24 * 3600;
constexpr int64_t MaxCount = std::numeric_limits<int64_t>::max();

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH [options]\n"
      "  --socket PATH            Unix socket to listen on (required)\n"
      "  --cache FILE             persist the kernel cache to FILE\n"
      "  --persist-interval SEC   periodic save interval (default 30, 0 =\n"
      "                           save only on shutdown)\n"
      "  --threads N              session pool threads (default: hardware)\n"
      "  --max-candidates N       server-wide tuning-budget cap\n"
      "  --cache-capacity N       LRU entry cap (default unbounded)\n"
      "  --cache-bytes N          LRU byte cap over the cache's resident-\n"
      "                           byte accounting (default unbounded)\n"
      "  --listen-tcp HOST:PORT   also listen on TCP (fleet serving; every\n"
      "                           connection must pass the shared-secret\n"
      "                           handshake; port 0 = OS-assigned)\n"
      "  --secret-file FILE       shared secret for the fabric handshake\n"
      "                           (first line of FILE; required with\n"
      "                           --listen-tcp / --peer)\n"
      "  --peer HOST:PORT         exchange tuned kernels with this peer\n"
      "                           daemon (repeatable; same-fingerprint\n"
      "                           peers only)\n"
      "  --target-spec FILE       register a target backend from a spec\n"
      "                           JSON file before serving (repeatable;\n"
      "                           docs/BACKENDS.md \"Specs as files\")\n"
      "  --machine-overlay FILE   refit machine-model constants from FILE\n"
      "                           (written by unit_refit) before serving;\n"
      "                           moves the spec hashes, so a persisted\n"
      "                           cache tuned without it starts cold\n"
      "  --trace-out FILE         dump the span buffer as Chrome trace-\n"
      "                           event JSON to FILE on shutdown\n"
      "  --slow-compile-ms N      log a one-line digest of every compile\n"
      "                           slower than N milliseconds\n"
      "  --no-trace               disable span recording (histograms and\n"
      "                           metrics stay on)\n",
      Argv0);
}

/// First line of \p Path, trailing CR/LF trimmed — the shared secret.
/// Exits loudly on a missing/empty file: a daemon silently listening on
/// TCP with an empty secret would be an open compile server.
std::string readSecretFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    std::fprintf(stderr, "error: cannot read secret file '%s'\n",
                 Path.c_str());
    std::exit(2);
  }
  char Buf[512];
  std::string Secret;
  if (std::fgets(Buf, sizeof(Buf), F))
    Secret = Buf;
  std::fclose(F);
  while (!Secret.empty() &&
         (Secret.back() == '\n' || Secret.back() == '\r'))
    Secret.pop_back();
  if (Secret.empty()) {
    std::fprintf(stderr, "error: secret file '%s' is empty\n", Path.c_str());
    std::exit(2);
  }
  return Secret;
}

} // namespace

int main(int argc, char **argv) {
  ServerConfig Config;
  std::string OverlayPath;
  std::vector<std::string> SpecPaths;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    // Numeric flags parse strictly: a rejected value exits before any
    // server or pool is built.
    auto NumberValue = [&](auto Min, auto Max) {
      decltype(Min) Value{};
      std::string Err;
      if (!parseNumber(NextValue(), Min, Max, Value, Err)) {
        std::fprintf(stderr, "error: %s: %s\n", Arg.c_str(), Err.c_str());
        std::exit(2);
      }
      return Value;
    };
    if (Arg == "--socket")
      Config.SocketPath = NextValue();
    else if (Arg == "--cache")
      Config.CacheFile = NextValue();
    else if (Arg == "--persist-interval")
      Config.PersistIntervalSeconds = NumberValue(0.0, MaxPersistSeconds);
    else if (Arg == "--threads")
      Config.SessionCfg.Threads =
          static_cast<unsigned>(NumberValue(int64_t{0}, MaxThreads));
    else if (Arg == "--max-candidates")
      Config.MaxCandidatesCap =
          static_cast<int>(NumberValue(int64_t{0}, int64_t{INT_MAX}));
    else if (Arg == "--cache-capacity")
      Config.SessionCfg.CacheCapacity =
          static_cast<size_t>(NumberValue(int64_t{0}, MaxCount));
    else if (Arg == "--cache-bytes")
      Config.SessionCfg.CacheCapacityBytes =
          static_cast<size_t>(NumberValue(int64_t{0}, MaxCount));
    else if (Arg == "--listen-tcp")
      Config.TcpListen = NextValue();
    else if (Arg == "--secret-file")
      Config.Secret = readSecretFile(NextValue());
    else if (Arg == "--peer")
      Config.Peers.push_back(NextValue());
    else if (Arg == "--target-spec")
      SpecPaths.push_back(NextValue());
    else if (Arg == "--machine-overlay")
      OverlayPath = NextValue();
    else if (Arg == "--trace-out")
      Config.TraceOutFile = NextValue();
    else if (Arg == "--slow-compile-ms")
      Config.SlowCompileMillis =
          NumberValue(0.0, std::numeric_limits<double>::max());
    else if (Arg == "--no-trace")
      Config.TraceEnabled = false;
    else if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (Config.SocketPath.empty()) {
    usage(argv[0]);
    return 2;
  }

  // File specs register before the overlay (so an overlay can refit a
  // file-loaded target) and before the server constructs its session
  // (so cache keys, the persisted-cache fingerprint check, and peer
  // fingerprints all see the final registry).
  for (const std::string &Path : SpecPaths) {
    std::string Err;
    TargetBackendRef Backend = registerSpecFile(Path, &Err);
    if (!Backend) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    std::printf("unit_serve: registered target '%s' (spec %s) from %s\n",
                Backend->id().c_str(), Backend->specHash().c_str(),
                Path.c_str());
  }

  // Refit before the server constructs its session: the new spec hashes
  // must be live before the persisted cache's fingerprint is checked.
  if (!OverlayPath.empty()) {
    std::string Err;
    if (!applyMachineOverlayFile(OverlayPath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    std::printf("unit_serve: applied machine overlay %s\n",
                OverlayPath.c_str());
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // A client vanishing mid-response must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  size_t PeerCount = Config.Peers.size();
  CompileServer Server(std::move(Config));
  std::string Err;
  if (!Server.start(&Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("unit_serve: listening on %s\n", Server.socketPath().c_str());
  if (Server.tcpPort() != 0)
    std::printf("unit_serve: fabric TCP listener on port %u (%zu peers "
                "configured)\n",
                static_cast<unsigned>(Server.tcpPort()), PeerCount);
  switch (Server.cacheLoadResult().Status) {
  case KernelCache::LoadStatus::BadFormat:
    std::fprintf(stderr, "unit_serve: warning: cache file is corrupted; "
                         "starting cold\n");
    break;
  case KernelCache::LoadStatus::FingerprintMismatch:
    std::fprintf(stderr,
                 "unit_serve: warning: cache file was written under a "
                 "different machine/tuner fingerprint; starting cold\n");
    break;
  case KernelCache::LoadStatus::Loaded:
  case KernelCache::LoadStatus::FileNotFound:
    break;
  }
  if (KernelCache::CacheStats S = Server.session().cache().stats();
      S.Entries > 0)
    std::printf("unit_serve: warm start, %zu cached kernels (%zu bytes)\n",
                S.Entries, S.BytesUsed);
  std::fflush(stdout);

  Server.waitForShutdownRequest(&Interrupted);
  Server.stop();

  CompileServer::Totals T = Server.totals();
  std::printf("unit_serve: served %llu requests from %llu connections "
              "(%llu kernels compiled, %llu errors)\n",
              static_cast<unsigned long long>(T.Requests),
              static_cast<unsigned long long>(T.Connections),
              static_cast<unsigned long long>(T.CompiledKernels),
              static_cast<unsigned long long>(T.Errors));
  return 0;
}
