//===- tools/unit_client.cpp - Example compile-server client ---------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
// The copy-paste client from docs/SERVER.md: connects to unit_serve,
// compiles one or more model-zoo models — blocking (one compile_model
// round trip each) or pipelined (--async: every layer submitted as
// compile_async up front, results pushed as they land) — or asks for
// stats / persistence / shutdown, and prints what the server did.
//
//   unit_client --socket /tmp/unit.sock --model resnet-18
//   unit_client --socket /tmp/unit.sock --async --model resnet-18 --model resnet-50
//   unit_client --socket /tmp/unit.sock --stats
//   unit_client --socket /tmp/unit.sock --shutdown
//
//===----------------------------------------------------------------------===//

#include "models/ModelZoo.h"
#include "server/CompileClient.h"
#include "support/StringUtils.h"
#include "target/SpecFile.h" // MaxSpecFileBytes — client-side size cap.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace unit;

namespace {

std::optional<Model> zooModel(const std::string &Name) {
  for (Model &M : paperModels())
    if (M.Name == Name)
      return std::move(M);
  // The transfer-tuning exercise model (docs/TUNING.md) is addressable
  // here too, so CI can warm a server on resnet-18 and then watch
  // transfer_seeds move while the widened variant compiles.
  if (Name == "resnet-18-wide")
    return makeResnet18Wide();
  return std::nullopt;
}

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --connect EP...) [actions]\n"
      "  --socket PATH       server Unix socket\n"
      "  --connect EP        server endpoint: a Unix socket path or a TCP\n"
      "                      HOST:PORT (needs --secret-file); repeatable —\n"
      "                      tried in order at connect, first to accept wins\n"
      "  --secret-file FILE  shared secret for TCP endpoints (first line)\n"
      "  --client NAME       client name for the hello handshake\n"
      "  --budget N          per-client tuning budget (hello max_candidates)\n"
      "  --model NAME        compile a zoo model (resnet-18, resnet-50, ...);\n"
      "                      repeatable — all named models are compiled\n"
      "  --async             pipeline every layer of every --model over one\n"
      "                      connection (compile_async + pushed results)\n"
      "                      instead of blocking compile_model round trips\n"
      "  --target T          target id, default x86 (see --list-targets)\n"
      "  --register-spec F   register a target backend from spec JSON file\n"
      "                      F on the running server (repeatable; runs\n"
      "                      before any --model compile, so one invocation\n"
      "                      can register a target and compile on it)\n"
      "  --expect-warm       exit 1 unless every layer was a cache hit\n"
      "  --list-targets      print the backends the server can compile for\n"
      "  --stats             print the server's stats message\n"
      "  --metrics           print the server's latency histograms in\n"
      "                      Prometheus text exposition format\n"
      "  --dump-trace FILE   write the server's span buffer as Chrome\n"
      "                      trace-event JSON ('-' = stdout); load it in\n"
      "                      chrome://tracing or Perfetto\n"
      "  --save-cache        ask the server to persist its cache now\n"
      "  --shutdown          ask the server to shut down\n",
      Argv0);
}

/// Renders the metrics message's "histograms" object as Prometheus text:
/// one `# TYPE <family> histogram` header per family, cumulative
/// `_bucket{le="..."}` lines (the server already emits cumulative
/// counts), then `_sum` and `_count`.
void printPrometheus(const Json &Hists) {
  for (const auto &KV : Hists.members()) {
    const std::string &Name = KV.first;
    const Json &H = KV.second;
    std::printf("# TYPE %s histogram\n", Name.c_str());
    if (const Json *Buckets = H.get("buckets"))
      for (const Json &B : Buckets->items()) {
        const Json *Le = B.get("le");
        char LeBuf[40];
        if (Le && Le->isNumber())
          std::snprintf(LeBuf, sizeof(LeBuf), "%.9g", Le->asNumber());
        else
          std::snprintf(LeBuf, sizeof(LeBuf), "+Inf");
        std::printf("%s_bucket{le=\"%s\"} %llu\n", Name.c_str(), LeBuf,
                    static_cast<unsigned long long>(B.integer("count", 0)));
      }
    std::printf("%s_sum %.9g\n", Name.c_str(), H.num("sum", 0));
    std::printf("%s_count %llu\n", Name.c_str(),
                static_cast<unsigned long long>(H.integer("count", 0)));
  }
}

/// --async: submit every layer of every model as compile_async before
/// joining anything, then wait for the pushed results. Returns false on
/// any failure; \p WarmLayers counts cached results for --expect-warm.
bool compileModelsAsync(CompileClient &Client, const std::string &Target,
                        const std::vector<Model> &Models,
                        const CompileOptions &Options, size_t &TotalLayers,
                        size_t &WarmLayers) {
  std::string Err;
  struct Submitted {
    const Model *M;
    std::vector<CompileClient::AsyncHandle> Handles;
  };
  std::vector<Submitted> All;
  size_t Tickets = 0;
  for (const Model &M : Models) {
    std::optional<std::vector<CompileClient::AsyncHandle>> Handles =
        Client.submitModelLayers(Target, M, Options, &Err);
    if (!Handles) {
      std::fprintf(stderr, "error: submitting '%s': %s\n", M.Name.c_str(),
                   Err.c_str());
      return false;
    }
    Tickets += Handles->size();
    All.push_back({&M, std::move(*Handles)});
  }
  std::printf("pipelined %zu tickets across %zu models on one connection\n",
              Tickets, Models.size());

  TotalLayers = 0;
  WarmLayers = 0;
  uint64_t OutOfOrder = 0, LastArrival = 0;
  for (const Submitted &S : All) {
    double ModelSeconds = 0;
    size_t ModelWarm = 0;
    for (size_t I = 0; I < S.Handles.size(); ++I) {
      std::optional<CompileClient::CompileResult> R =
          Client.wait(S.Handles[I], &Err);
      if (!R) {
        std::fprintf(stderr, "error: layer %zu of '%s': %s\n", I,
                     S.M->Name.c_str(), Err.c_str());
        return false;
      }
      ModelSeconds += R->Report.Seconds;
      if (R->Cached)
        ++ModelWarm;
      // Results arrive in completion order; count inversions against
      // submission order to show the pipelining at work.
      if (R->Arrival < LastArrival)
        ++OutOfOrder;
      LastArrival = R->Arrival;
    }
    TotalLayers += S.Handles.size();
    WarmLayers += ModelWarm;
    std::printf("%s on %s: %zu layers pipelined, cached layers: %zu/%zu, "
                "modeled conv time %.3f ms\n",
                S.M->Name.c_str(), Target.c_str(), S.Handles.size(),
                ModelWarm, S.Handles.size(), ModelSeconds * 1e3);
  }
  std::printf("pipelined completion: %zu/%zu tickets resolved "
              "(%llu out-of-submission-order deliveries)\n",
              TotalLayers, Tickets,
              static_cast<unsigned long long>(OutOfOrder));
  return true;
}

/// First line of \p Path, trailing CR/LF trimmed — the shared secret.
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
  return Secret;
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath, Secret, ClientName = "unit_client",
                                  TargetName = "x86";
  std::vector<std::string> Endpoints;
  std::vector<std::string> ModelNames;
  std::vector<std::string> SpecPaths;
  std::string TraceOutPath;
  std::string Err;
  int Budget = 0;
  bool WantStats = false, WantSave = false, WantShutdown = false,
       ExpectWarm = false, WantTargets = false, Async = false,
       WantMetrics = false, WantTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--socket")
      SocketPath = NextValue();
    else if (Arg == "--connect")
      Endpoints.push_back(NextValue());
    else if (Arg == "--secret-file")
      Secret = readSecretFile(NextValue());
    else if (Arg == "--client")
      ClientName = NextValue();
    else if (Arg == "--budget") {
      int64_t Value = 0;
      if (!parseNumber(NextValue(), 0, INT_MAX, Value, Err)) {
        std::fprintf(stderr, "error: --budget: %s\n", Err.c_str());
        return 2;
      }
      Budget = static_cast<int>(Value);
    } else if (Arg == "--model")
      ModelNames.push_back(NextValue());
    else if (Arg == "--async")
      Async = true;
    else if (Arg == "--target")
      TargetName = NextValue();
    else if (Arg == "--register-spec")
      SpecPaths.push_back(NextValue());
    else if (Arg == "--expect-warm")
      ExpectWarm = true;
    else if (Arg == "--list-targets")
      WantTargets = true;
    else if (Arg == "--stats")
      WantStats = true;
    else if (Arg == "--metrics")
      WantMetrics = true;
    else if (Arg == "--dump-trace") {
      TraceOutPath = NextValue();
      WantTrace = true;
    } else if (Arg == "--save-cache")
      WantSave = true;
    else if (Arg == "--shutdown")
      WantShutdown = true;
    else if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  // --socket is sugar for a single Unix endpoint at the front of the
  // endpoint list.
  if (!SocketPath.empty())
    Endpoints.insert(Endpoints.begin(), SocketPath);
  if (Endpoints.empty() ||
      (ModelNames.empty() && SpecPaths.empty() && !WantStats && !WantSave &&
       !WantShutdown && !WantTargets && !WantMetrics && !WantTrace)) {
    usage(argv[0]);
    return 2;
  }

  CompileClient Client;
  if (!Client.connect(Endpoints, Secret, &Err) ||
      !Client.hello(ClientName, Budget, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  // Registrations run first so one invocation can push a spec and then
  // --list-targets / --model against it. The file is parsed locally only
  // as JSON — spec validation is the server's job, so its error message
  // (naming the offending JSON path) is what the operator sees.
  for (const std::string &Path : SpecPaths) {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "error: cannot read spec file '%s'\n",
                   Path.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Text = Buf.str();
    if (Text.size() > MaxSpecFileBytes) {
      std::fprintf(stderr, "error: spec file '%s' is %zu bytes, over the "
                           "%zu-byte limit\n",
                   Path.c_str(), Text.size(), MaxSpecFileBytes);
      return 1;
    }
    std::optional<Json> Doc = Json::parse(Text, &Err);
    if (!Doc) {
      std::fprintf(stderr, "error: spec file '%s': %s\n", Path.c_str(),
                   Err.c_str());
      return 1;
    }
    std::optional<CompileClient::RegisteredTarget> Registered =
        Client.registerTarget(*Doc, &Err);
    if (!Registered) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("registered target '%s' spec %s source=%s\n",
                Registered->Id.c_str(), Registered->SpecHash.c_str(),
                Registered->Source.c_str());
  }

  if (WantTargets) {
    std::optional<std::vector<CompileClient::TargetInfo>> Targets =
        Client.listTargets(&Err);
    if (!Targets) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    for (const CompileClient::TargetInfo &T : *Targets)
      std::printf("%-10s spec %s  conv3d=%s  source=%-7s  %s\n", T.Id.c_str(),
                  T.SpecHash.c_str(), T.SupportsConv3d ? "yes" : "no",
                  T.Source.c_str(), T.Description.c_str());
  }

  if (!ModelNames.empty()) {
    std::vector<Model> Models;
    for (const std::string &Name : ModelNames) {
      std::optional<Model> M = zooModel(Name);
      if (!M) {
        std::fprintf(stderr, "error: no zoo model named '%s'\n", Name.c_str());
        return 1;
      }
      Models.push_back(std::move(*M));
    }
    CompileOptions Options;

    size_t TotalLayers = 0, WarmLayers = 0;
    if (Async) {
      if (!compileModelsAsync(Client, TargetName, Models, Options,
                              TotalLayers, WarmLayers))
        return 1;
    } else {
      for (const Model &M : Models) {
        std::optional<CompileClient::ModelResult> Result =
            Client.compileModel(TargetName, M, Options, &Err);
        if (!Result) {
          std::fprintf(stderr, "error: %s\n", Err.c_str());
          return 1;
        }
        double Total = 0;
        for (const KernelReport &R : Result->Layers)
          Total += R.Seconds;
        std::printf("%s on %s: %zu layers (%zu distinct kernels), "
                    "cache-hit layers: %zu/%zu, modeled conv time %.3f ms, "
                    "server wall %.1f ms\n",
                    Result->ModelName.c_str(), TargetName.c_str(),
                    Result->Layers.size(), Result->DistinctShapes,
                    Result->CacheHitLayers, Result->Layers.size(), Total * 1e3,
                    Result->ServerWallSeconds * 1e3);
        TotalLayers += Result->Layers.size();
        WarmLayers += Result->CacheHitLayers;
      }
    }
    if (ExpectWarm && WarmLayers != TotalLayers) {
      std::fprintf(stderr,
                   "error: expected a fully warm compile, but only %zu of "
                   "%zu layers hit the shared cache\n",
                   WarmLayers, TotalLayers);
      return 1;
    }
  }

  if (WantStats) {
    std::optional<Json> Stats = Client.stats(/*Detail=*/false, &Err);
    if (!Stats) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("%s\n", Stats->dump().c_str());
  }

  if (WantMetrics) {
    std::optional<Json> Metrics = Client.metrics(&Err);
    if (!Metrics) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    if (const Json *Hists = Metrics->get("histograms"))
      printPrometheus(*Hists);
  }

  if (WantTrace) {
    std::optional<Json> Trace = Client.dumpTrace(&Err);
    if (!Trace) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    const Json *Inner = Trace->get("trace");
    std::string Dump = Inner ? Inner->dump() : "{}";
    if (TraceOutPath == "-") {
      std::printf("%s\n", Dump.c_str());
    } else {
      std::FILE *Out = std::fopen(TraceOutPath.c_str(), "w");
      if (!Out ||
          std::fwrite(Dump.data(), 1, Dump.size(), Out) != Dump.size()) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     TraceOutPath.c_str());
        if (Out)
          std::fclose(Out);
        return 1;
      }
      std::fclose(Out);
      std::printf("wrote %zu trace bytes to %s\n", Dump.size(),
                  TraceOutPath.c_str());
    }
  }

  if (WantSave) {
    std::optional<size_t> Entries = Client.saveCache("", &Err);
    if (!Entries) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("server persisted %zu cache entries\n", *Entries);
  }

  if (WantShutdown) {
    if (!Client.shutdownServer(&Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("server acknowledged shutdown\n");
  }
  return 0;
}
