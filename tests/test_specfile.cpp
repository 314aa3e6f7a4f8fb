//===- tests/test_specfile.cpp - Specs-as-data conformance gauntlet -------===//
//
// The ACT thesis, locked by tests: a compiler backend is a data file.
// Covers the spec-file JSON codec (serializeSpec/parseSpec as exact,
// hash-preserving inverses), golden files for every builtin spec, pinned
// spec hashes, the all-or-nothing negative-path parser matrix (locally
// and replayed over the register_target wire message), and the shared
// conformance gauntlet (tests/SpecConformance.h) over every registered
// target — builtins, a file-loaded spec, and a wire-registered spec.
//
//===----------------------------------------------------------------------===//

#include "SpecConformance.h"
#include "models/ModelZoo.h"
#include "runtime/CompilerSession.h"
#include "server/CompileClient.h"
#include "server/CompileServer.h"
#include "target/BuiltinSpecs.h"
#include "target/MachineOverlay.h"
#include "target/SpecFile.h"
#include "target/TargetRegistry.h"

#include <unistd.h>

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace unit;
using namespace unit::testutil;

namespace {

std::string repoPath(const std::string &Rel) {
  return std::string(UNIT_REPO_ROOT) + "/" + Rel;
}

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The checked-in fixed16-dma spec as a parsed Json document — the base
/// every negative-matrix case mutates a copy of.
Json baseSpecDoc() {
  std::string Err;
  std::optional<Json> Doc =
      Json::parse(readFileOrDie(repoPath("specs/fixed16-dma.json")), &Err);
  EXPECT_TRUE(Doc.has_value()) << Err;
  Json Out = *Doc;
  // A distinct id so a (buggy) partial registration would be visible as
  // a brand-new target, not a mutation of fixed16-dma.
  Out.set("id", "negmat");
  return Out;
}

/// Replaces Doc.<Block>.<Key> with \p Value on a copy.
Json withBlockField(const Json &Doc, const std::string &Block,
                    const std::string &Key, Json Value) {
  Json Out = Doc;
  Json B = *Doc.get(Block);
  B.set(Key, std::move(Value));
  Out.set(Block, std::move(B));
  return Out;
}

/// One negative-matrix case: a mutated document, the JSON path the error
/// must name, and a label for failure output.
struct BadSpecCase {
  const char *Label;
  Json Doc;
  const char *ErrMustContain;
};

std::vector<BadSpecCase> badSpecMatrix() {
  Json Base = baseSpecDoc();
  std::vector<BadSpecCase> Cases;

  Json UnknownTop = Base;
  UnknownTop.set("frobnicate", 1);
  Cases.push_back({"unknown top-level field", UnknownTop, "frobnicate"});

  Cases.push_back({"unknown machine field",
                   withBlockField(Base, "cpu", "frobs", 1.0), "cpu.frobs"});

  Cases.push_back({"bad dtype",
                   withBlockField(Base, "scheme", "activation", "q7"),
                   "scheme.activation"});

  Cases.push_back({"non-positive machine param",
                   withBlockField(Base, "cpu", "freq_ghz", 0.0),
                   "cpu.freq_ghz"});

  // Duplicate intrinsic name: the single intrinsic, twice.
  {
    Json Doc = Base;
    Json Intrs = *Base.get("intrinsics");
    Intrs.push(Intrs.items()[0]);
    Doc.set("intrinsics", std::move(Intrs));
    Cases.push_back({"duplicate intrinsic name", Doc, "intrinsics[1].name"});
  }

  // Engine/machine-block mismatch: cpu-dot spec flipped to the GPU
  // engine while keeping its cpu block.
  {
    Json Doc = Base;
    Doc.set("engine", "gpu-implicit-gemm");
    Cases.push_back({"engine/machine mismatch", Doc, "'cpu'"});
  }

  {
    Json Doc = Base;
    Doc.set("version", 2);
    Cases.push_back({"wrong version", Doc, "version"});
  }

  Cases.push_back({"non-positive intrinsic lanes", [&] {
                     Json Doc = Base;
                     Json Intrs = Json::array();
                     Json I0 = Base.get("intrinsics")->items()[0];
                     I0.set("lanes", 0);
                     Intrs.push(std::move(I0));
                     Doc.set("intrinsics", std::move(Intrs));
                     return Doc;
                   }(),
                   "intrinsics[0].lanes"});

  return Cases;
}

TEST(SpecFile, NegativePathMatrixLocal) {
  TargetRegistry &Registry = TargetRegistry::instance();
  for (const BadSpecCase &C : badSpecMatrix()) {
    SCOPED_TRACE(C.Label);
    TargetSpec Spec;
    std::string Err;
    EXPECT_FALSE(parseSpec(C.Doc, Spec, &Err));
    EXPECT_NE(Err.find(C.ErrMustContain), std::string::npos)
        << "error was: " << Err;
    EXPECT_EQ(Registry.lookup("negmat"), nullptr)
        << "a rejected spec must leave the registry untouched";
  }
}

TEST(SpecFile, TruncatedAndOversizeDocuments) {
  std::string Text = readFileOrDie(repoPath("specs/fixed16-dma.json"));
  TargetSpec Spec;
  std::string Err;
  EXPECT_FALSE(parseSpecText(Text.substr(0, Text.size() / 2), Spec, &Err));
  EXPECT_NE(Err.find("parse error"), std::string::npos) << Err;

  std::string Huge(MaxSpecFileBytes + 1, ' ');
  EXPECT_FALSE(parseSpecText(Huge, Spec, &Err));
  EXPECT_NE(Err.find("byte limit"), std::string::npos) << Err;

  EXPECT_FALSE(loadSpecFile(repoPath("specs/no-such-file.json"), Spec, &Err));
  EXPECT_NE(Err.find("cannot read"), std::string::npos) << Err;
}

TEST(SpecFile, EveryTruncationAndBitFlipParsesCleanly) {
  // Mutation sweep: parseSpecText touches no global state, so every
  // damaged document runs in-process. (Machine overlays are not swept
  // here: one that still parses would refit the process-wide specs.)
  const std::string Text = readFileOrDie(repoPath("specs/fixed16-dma.json"));
  auto Parse = [](const std::string &Mutant, const std::string &What) {
    TargetSpec Spec;
    std::string Err;
    if (!parseSpecText(Mutant, Spec, &Err)) {
      EXPECT_FALSE(Err.empty()) << What;
    }
  };
  for (size_t Len = 0; Len < Text.size(); ++Len)
    Parse(Text.substr(0, Len), "truncated to " + std::to_string(Len));
  for (size_t I = 0; I < Text.size(); ++I)
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::string Mutant = Text;
      Mutant[I] = static_cast<char>(Mutant[I] ^ (1 << Bit));
      Parse(Mutant, "bit " + std::to_string(Bit) + " of byte " +
                        std::to_string(I) + " flipped");
    }
}

TEST(SpecFile, Conv3dRejectedOnGpuEngine) {
  std::string Err;
  std::optional<Json> Doc = Json::parse(
      readFileOrDie(repoPath("specs/nvgpu-wmma-s8.json")), &Err);
  ASSERT_TRUE(Doc.has_value()) << Err;
  Json Bad = *Doc;
  Bad.set("conv3d", true);
  TargetSpec Spec;
  EXPECT_FALSE(parseSpec(Bad, Spec, &Err));
  EXPECT_NE(Err.find("conv3d"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Golden files: the serialized form of every builtin spec is checked in.
// Drift in either direction — codec change or spec change — fails here
// with the full document diff. Regenerate deliberately with
// `unit_spec --write-goldens tests/data/specs`.
//===----------------------------------------------------------------------===//

TEST(SpecFile, BuiltinGoldenFiles) {
  for (const TargetSpec &Spec : builtinTargetSpecs()) {
    SCOPED_TRACE(Spec.Id);
    std::string Golden =
        readFileOrDie(repoPath("tests/data/specs/" + Spec.Id + ".json"));

    // parse(golden) reproduces the registered spec hash...
    TargetSpec Parsed;
    std::string Err;
    ASSERT_TRUE(parseSpecText(Golden, Parsed, &Err)) << Err;
    EXPECT_EQ(Parsed.hash(), Spec.hash())
        << Spec.Id << ": the golden file no longer parses to the builtin "
        << "spec — a codec or spec change slipped out without regenerating "
        << "tests/data/specs";

    // ...and serializing the builtin reproduces the golden byte-for-byte.
    EXPECT_EQ(serializeSpec(Spec).dump() + "\n", Golden)
        << Spec.Id << ": serializeSpec output drifted from the golden";
  }
}

TEST(SpecFile, BuiltinSpecHashesArePinned) {
  // The spec hash is the cache-key salt and the persistence/peer-exchange
  // fingerprint component. Moving one silently invalidates every
  // persisted cache and splits warm fleets into cold fingerprint islands.
  // If the change is deliberate, update the pin AND regenerate the
  // goldens; operators must treat the release as a cold restart.
  const std::pair<const char *, const char *> Pinned[] = {
      {"x86", "f8591d13e14047bb"},      {"arm", "1702a6754e8abe04"},
      {"nvgpu", "ae60f90d2943066c"},    {"x86-amx", "6be3fbc11acaa869"},
      {"arm-sve", "1298ec74a82c05b3"},
  };
  for (const auto &[Id, Hash] : Pinned) {
    SCOPED_TRACE(Id);
    EXPECT_EQ(TargetRegistry::instance().specFor(Id).hash(), Hash)
        << "the '" << Id << "' builtin spec hash moved: every persisted "
        << "cache tuned under the old hash starts cold, and peer daemons "
        << "on the old spec stop exchanging kernels with this build";
  }
}

//===----------------------------------------------------------------------===//
// The machine-field table (CpuMachine::fields / GpuMachine::fields) is the
// one list the spec codec, machine overlays and cache fingerprints walk,
// so every row must reach all three.
//===----------------------------------------------------------------------===//

/// Checks MachineT's field table against the builtin spec \p TargetId,
/// whose machine is the \p Block ("cpu" / "gpu") member \p Machine.
template <typename MachineT>
void checkFieldTable(const std::string &TargetId, const char *Block,
                     MachineT TargetSpec::*Machine) {
  const std::vector<MachineField<MachineT>> &Fields = MachineT::fields();
  for (size_t I = 0; I < Fields.size(); ++I)
    for (size_t J = I + 1; J < Fields.size(); ++J) {
      EXPECT_STRNE(Fields[I].Key, Fields[J].Key);
      bool SameMember = Fields[I].Real ? Fields[I].Real == Fields[J].Real
                                       : Fields[I].Count == Fields[J].Count;
      EXPECT_FALSE(SameMember) << Fields[I].Key << " and " << Fields[J].Key
                               << " name the same member";
    }

  TargetRegistry &Registry = TargetRegistry::instance();
  const TargetSpec Factory = Registry.specFor(TargetId);
  auto OverlaySetting = [&](const char *Key, double Value) {
    Json Values = Json::object();
    Values.set(Key, Value);
    Json Entry = Json::object();
    Entry.set("target", TargetId);
    Entry.set(Block, std::move(Values));
    Json Doc = Json::object();
    Doc.set("version", 1);
    Doc.set("refit", Json::array().push(std::move(Entry)));
    return Doc.dump();
  };
  for (const MachineField<MachineT> &F : Fields) {
    SCOPED_TRACE(F.Key);
    double Old = F.get(Factory.*Machine);
    double New = F.Count ? Old + 1 : Old * 2;
    TargetSpec Changed = Factory;
    F.set(Changed.*Machine, New);
    // The field is in the fingerprint, so it salts every cache key...
    EXPECT_NE(Changed.hash(), Factory.hash());

    // ...it survives the file codec exactly...
    TargetSpec Parsed;
    std::string Err;
    ASSERT_TRUE(parseSpec(serializeSpec(Changed), Parsed, &Err)) << Err;
    EXPECT_EQ(F.get(Parsed.*Machine), New);
    EXPECT_EQ(Parsed.hash(), Changed.hash());

    // ...and a one-field overlay block changes it and nothing else.
    ASSERT_TRUE(applyMachineOverlayText(OverlaySetting(F.Key, New), &Err))
        << Err;
    const TargetSpec Refit = Registry.specFor(TargetId);
    EXPECT_EQ((Refit.*Machine).Name, (Factory.*Machine).Name);
    for (const MachineField<MachineT> &G : Fields)
      EXPECT_EQ(G.get(Refit.*Machine), G.get(Changed.*Machine)) << G.Key;
    EXPECT_EQ(Refit.hash(), Changed.hash());

    ASSERT_TRUE(applyMachineOverlayText(OverlaySetting(F.Key, Old), &Err))
        << Err;
    ASSERT_EQ(Registry.specFor(TargetId).hash(), Factory.hash());
  }
}

TEST(MachineFields, EveryRowReachesHashCodecAndOverlay) {
  checkFieldTable<CpuMachine>("x86", "cpu", &TargetSpec::Cpu);
  checkFieldTable<GpuMachine>("nvgpu", "gpu", &TargetSpec::Gpu);
}

//===----------------------------------------------------------------------===//
// The conformance gauntlet over every registered target, with the two
// checked-in file specs loaded the way production loads them: fixed16-dma
// as a --target-spec file, nvgpu-s8 pushed over the wire.
//===----------------------------------------------------------------------===//

class SpecGauntletTest : public ::testing::Test {
protected:
  static CompileServer *Server;
  static CompileClient *Client;

  static std::string socketPath() {
    return "/tmp/unit_specfile_" + std::to_string(::getpid()) + ".sock";
  }

  static void SetUpTestSuite() {
    // File spec first, so the server session's cache fingerprint already
    // covers it — the same order unit_serve uses.
    std::string Err;
    ASSERT_NE(registerSpecFile(repoPath("specs/fixed16-dma.json"), &Err),
              nullptr)
        << Err;
    ASSERT_EQ(TargetRegistry::instance().specSourceFor("fixed16-dma"),
              SpecSource::File);

    ServerConfig Config;
    Config.SocketPath = socketPath();
    Config.PersistIntervalSeconds = 0;
    Server = new CompileServer(Config);
    ASSERT_TRUE(Server->start(&Err)) << Err;
    Client = new CompileClient();
    ASSERT_TRUE(Client->connect(Config.SocketPath, &Err)) << Err;
    ASSERT_TRUE(Client->hello("specfile-test", 0, &Err).has_value()) << Err;

    // The wmma.s8 spec arrives the operator way: register_target into
    // the live daemon.
    std::optional<Json> Doc = Json::parse(
        readFileOrDie(repoPath("specs/nvgpu-wmma-s8.json")), &Err);
    ASSERT_TRUE(Doc.has_value()) << Err;
    std::optional<CompileClient::RegisteredTarget> Registered =
        Client->registerTarget(*Doc, &Err);
    ASSERT_TRUE(Registered.has_value()) << Err;
    EXPECT_EQ(Registered->Id, "nvgpu-s8");
    EXPECT_EQ(Registered->Source, "wire");
    EXPECT_EQ(TargetRegistry::instance().specSourceFor("nvgpu-s8"),
              SpecSource::Wire);
  }

  static void TearDownTestSuite() {
    Client->close();
    delete Client;
    Server->stop();
    delete Server;
    // stop() keeps the lock file on purpose; a test owns its cleanup.
    ::unlink((socketPath() + ".lock").c_str());
  }
};

CompileServer *SpecGauntletTest::Server = nullptr;
CompileClient *SpecGauntletTest::Client = nullptr;

TEST_F(SpecGauntletTest, EveryRegisteredTargetPasses) {
  TargetRegistry &Registry = TargetRegistry::instance();
  size_t Ran = 0;
  for (const TargetBackendRef &B : Registry.all()) {
    if (!Registry.hasSpecFor(B->id()))
      continue; // Hand-written backends have no file form to conform to.
    runSpecGauntlet(Registry.specFor(B->id()), *Client);
    ++Ran;
  }
  // Five builtins + the two file specs, at minimum.
  EXPECT_GE(Ran, 7u);
}

TEST_F(SpecGauntletTest, Fixed16DmaTensorizesResnet18EndToEnd) {
  // The headline ACT claim: an int16 fixed-point accelerator described
  // entirely by a checked-in JSON file compiles the zoo's flagship model
  // through the normal session path with zero C++ edits.
  std::optional<Model> Resnet;
  for (Model &M : paperModels())
    if (M.Name == "resnet-18")
      Resnet = std::move(M);
  ASSERT_TRUE(Resnet.has_value());

  CompilerSession Session;
  ModelCompileResult R = Session.compileModel(*Resnet, "fixed16-dma", {});
  ASSERT_EQ(R.Layers.size(), Resnet->Convs.size());
  for (size_t I = 0; I < R.Layers.size(); ++I)
    EXPECT_EQ(R.Layers[I].Tensorized, !Resnet->Convs[I].Depthwise)
        << "layer " << Resnet->Convs[I].Name;
  EXPECT_GT(R.FreshCompiles, 0u);

  // The repeat is fully warm: same spec, same hash, same cache keys.
  ModelCompileResult Warm = Session.compileModel(*Resnet, "fixed16-dma", {});
  EXPECT_EQ(Warm.CacheHitLayers, Warm.Layers.size());
  EXPECT_EQ(Warm.FreshCompiles, 0u);
}

TEST_F(SpecGauntletTest, WireNegativeMatrixGetsErrorFrames) {
  // The same rejection matrix, replayed through register_target: every
  // bad document earns an error frame naming the offending JSON path,
  // and the daemon never registers the target.
  std::string Err;
  for (const BadSpecCase &C : badSpecMatrix()) {
    SCOPED_TRACE(C.Label);
    Json Req = Json::object();
    Req.set("type", "register_target");
    Req.set("id", 9001);
    Req.set("spec", C.Doc);
    std::optional<Json> Reply = Client->request(Req, &Err);
    ASSERT_TRUE(Reply.has_value()) << Err;
    EXPECT_EQ(Reply->str("type"), "error");
    EXPECT_NE(Reply->str("message").find(C.ErrMustContain),
              std::string::npos)
        << "error was: " << Reply->str("message");
  }

  // "spec" not an object (the wire shape of a truncated document).
  Json Req = Json::object();
  Req.set("type", "register_target");
  Req.set("id", 9002);
  Req.set("spec", "{\"version\": 1, \"id\": \"negmat\"");
  std::optional<Json> Reply = Client->request(Req, &Err);
  ASSERT_TRUE(Reply.has_value()) << Err;
  EXPECT_EQ(Reply->str("type"), "error");
  EXPECT_NE(Reply->str("message").find("'spec' object"), std::string::npos);

  // Over-size document: a spec whose dump exceeds MaxSpecFileBytes.
  Json Huge = baseSpecDoc();
  Huge.set("description", std::string(MaxSpecFileBytes + 1, 'x'));
  Req.set("id", 9003);
  Req.set("spec", std::move(Huge));
  Reply = Client->request(Req, &Err);
  ASSERT_TRUE(Reply.has_value()) << Err;
  EXPECT_EQ(Reply->str("type"), "error");
  EXPECT_NE(Reply->str("message").find("limit"), std::string::npos);

  EXPECT_EQ(TargetRegistry::instance().lookup("negmat"), nullptr)
      << "a rejected register_target must leave the registry untouched";
}

TEST_F(SpecGauntletTest, RegisterTargetIsSecretGatedOnTcp) {
  // TCP daemons refuse unauthenticated connections outright, so
  // register_target is unreachable without the shared secret.
  ServerConfig Config;
  Config.SocketPath =
      "/tmp/unit_specfile_tcp_" + std::to_string(::getpid()) + ".sock";
  Config.TcpListen = "127.0.0.1:0";
  Config.Secret = "spec-gauntlet-secret";
  Config.PersistIntervalSeconds = 0;
  CompileServer TcpServer(Config);
  std::string Err;
  ASSERT_TRUE(TcpServer.start(&Err)) << Err;
  std::string Endpoint =
      "127.0.0.1:" + std::to_string(TcpServer.tcpPort());

  CompileClient Wrong;
  EXPECT_FALSE(Wrong.connect({Endpoint}, "not-the-secret", &Err));

  CompileClient Right;
  ASSERT_TRUE(Right.connect({Endpoint}, Config.Secret, &Err)) << Err;
  ASSERT_TRUE(Right.hello("tcp-spec-test", 0, &Err).has_value()) << Err;
  Json Doc = baseSpecDoc();
  Doc.set("id", "negmat-tcp");
  std::optional<CompileClient::RegisteredTarget> Registered =
      Right.registerTarget(Doc, &Err);
  ASSERT_TRUE(Registered.has_value()) << Err;
  EXPECT_EQ(Registered->Id, "negmat-tcp");
  Right.close();
  TcpServer.stop();
  ::unlink((Config.SocketPath + ".lock").c_str());

  // Scrub the TCP-registered spec so later tests see the stock registry.
  // (There is no unregister; re-pointing the id at a throwaway builtin
  // copy would be worse than leaving it — the registry keeps it, and
  // provenance marks it as wire-registered.)
  EXPECT_EQ(TargetRegistry::instance().specSourceFor("negmat-tcp"),
            SpecSource::Wire);
}

} // namespace
