//===- target/SpecFile.cpp - Target specs as JSON files --------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//

#include "target/SpecFile.h"

#include "core/Isomorphism.h"
#include "isa/Intrinsics.h"
#include "support/ErrorHandling.h"

#include <cmath>
#include <fstream>
#include <unordered_set>
#include <vector>

namespace unit {

namespace {

bool fail(std::string *Err, std::string Msg) {
  if (Err)
    *Err = std::move(Msg);
  return false;
}

//===----------------------------------------------------------------------===//
// DataType codec ("i8", "u8", "i16", "f16", ... — DataType::str inverse)
//===----------------------------------------------------------------------===//

bool parseDataType(const std::string &Text, DataType &Out) {
  if (Text.size() < 2)
    return false;
  DTypeKind Kind;
  switch (Text[0]) {
  case 'i': Kind = DTypeKind::Int; break;
  case 'u': Kind = DTypeKind::UInt; break;
  case 'f': Kind = DTypeKind::Float; break;
  default: return false;
  }
  int Bits = 0;
  for (size_t I = 1; I < Text.size(); ++I) {
    if (Text[I] < '0' || Text[I] > '9')
      return false; // Vector spellings ("u8x64") are not scheme types.
    Bits = Bits * 10 + (Text[I] - '0');
    if (Bits > 64)
      return false;
  }
  if (Bits != 8 && Bits != 16 && Bits != 32 && Bits != 64)
    return false;
  if (Kind == DTypeKind::Float && Bits == 8)
    return false;
  Out = DataType(Kind, static_cast<unsigned>(Bits));
  return true;
}

bool readDataTypeField(const Json &Obj, const std::string &Path,
                       const char *Key, DataType &Out, std::string *Err) {
  const Json *V = Obj.get(Key);
  if (!V || !V->isString())
    return fail(Err, "spec field '" + Path + "." + Key +
                         "' must be a scalar dtype string (\"i8\", \"u8\", "
                         "\"i16\", \"f16\", ...)");
  if (!parseDataType(V->asString(), Out))
    return fail(Err, "spec field '" + Path + "." + Key +
                         "': unknown dtype '" + V->asString() + "'");
  return true;
}

//===----------------------------------------------------------------------===//
// Shared field readers — every error names the offending JSON path.
//===----------------------------------------------------------------------===//

bool readPositiveDouble(const Json &Obj, const std::string &Path,
                        const char *Key, double &Out, std::string *Err) {
  const Json *V = Obj.get(Key);
  if (!V || !V->isNumber())
    return fail(Err, "spec field '" + Path + "." + Key +
                         "' must be a number");
  double X = V->asNumber();
  if (!std::isfinite(X) || X <= 0)
    return fail(Err, "spec field '" + Path + "." + Key +
                         "' must be finite and > 0");
  Out = X;
  return true;
}

bool readPositiveInt(const Json &Obj, const std::string &Path,
                     const char *Key, int64_t Max, int64_t &Out,
                     std::string *Err) {
  const Json *V = Obj.get(Key);
  if (!V || !V->isNumber())
    return fail(Err, "spec field '" + Path + "." + Key +
                         "' must be a number");
  double X = V->asNumber();
  if (!std::isfinite(X) || X <= 0 || X != std::floor(X) ||
      X > static_cast<double>(Max))
    return fail(Err, "spec field '" + Path + "." + Key +
                         "' must be a positive integer <= " +
                         std::to_string(Max));
  Out = static_cast<int64_t>(X);
  return true;
}

bool readString(const Json &Obj, const std::string &Path, const char *Key,
                std::string &Out, std::string *Err) {
  const Json *V = Obj.get(Key);
  if (!V || !V->isString() || V->asString().empty())
    return fail(Err, "spec field '" + Path + "." + Key +
                         "' must be a non-empty string");
  Out = V->asString();
  return true;
}

/// Rejects members of \p Obj outside \p Known — a typo'd machine
/// parameter silently keeping a default (or, in a machine overlay, its
/// registered value) would defeat the all-or-nothing contract.
bool checkKnownKeys(const Json &Obj, const std::string &Path,
                    const std::vector<std::string> &Known, std::string *Err) {
  for (const auto &Member : Obj.members()) {
    bool Found = false;
    for (const std::string &K : Known)
      if (Member.first == K) {
        Found = true;
        break;
      }
    if (!Found)
      return fail(Err, "unknown spec field '" + Path +
                           (Path.empty() ? "" : ".") + Member.first + "'");
  }
  return true;
}

/// The machine-block writer: "name", then every field-table row in
/// order. parseMachineBlock is its inverse.
template <typename MachineT> Json machineBlockJson(const MachineT &M) {
  Json J = Json::object();
  J.set("name", M.Name);
  for (const MachineField<MachineT> &F : MachineT::fields())
    J.set(F.Key, F.get(M));
  return J;
}

//===----------------------------------------------------------------------===//
// Intrinsics — two kinds, matching the two generic builders. "dot" is a
// VNNI/DOT-style Lanes x Reduce dot product; "mac" is a WMMA-style MxMxM
// in-place matrix-multiply-accumulate. Every builtin spec is built from
// exactly these builders, which is what makes serialization lossless.
//===----------------------------------------------------------------------===//

bool parseIntrinsic(const Json &Obj, const std::string &Path,
                    const std::string &TargetId, TensorIntrinsicRef &Out,
                    std::string *Err) {
  if (!Obj.isObject())
    return fail(Err, "spec field '" + Path + "' must be an object");
  std::string Kind, Name, Llvm;
  if (!readString(Obj, Path, "kind", Kind, Err) ||
      !readString(Obj, Path, "name", Name, Err) ||
      !readString(Obj, Path, "llvm", Llvm, Err))
    return false;
  const Json *CostObj = Obj.get("cost");
  if (!CostObj || !CostObj->isObject())
    return fail(Err, "spec field '" + Path + ".cost' must be an object");
  if (!checkKnownKeys(*CostObj, Path + ".cost",
                      {"latency_cycles", "issue_per_cycle", "macs_per_instr"},
                      Err))
    return false;
  IntrinsicCost Cost;
  if (!readPositiveDouble(*CostObj, Path + ".cost", "latency_cycles",
                          Cost.LatencyCycles, Err) ||
      !readPositiveDouble(*CostObj, Path + ".cost", "issue_per_cycle",
                          Cost.IssuePerCycle, Err) ||
      !readPositiveDouble(*CostObj, Path + ".cost", "macs_per_instr",
                          Cost.MacsPerInstr, Err))
    return false;

  if (Kind == "dot") {
    if (!checkKnownKeys(Obj, Path,
                        {"kind", "name", "llvm", "lanes", "reduce", "a_type",
                         "b_type", "cost"},
                        Err))
      return false;
    int64_t Lanes = 0, Reduce = 0;
    DataType AType, BType;
    // 1<<16 per dimension bounds the semantics tensors a wire-supplied
    // spec can make this process materialize.
    if (!readPositiveInt(Obj, Path, "lanes", 1 << 16, Lanes, Err) ||
        !readPositiveInt(Obj, Path, "reduce", 1 << 16, Reduce, Err) ||
        !readDataTypeField(Obj, Path, "a_type", AType, Err) ||
        !readDataTypeField(Obj, Path, "b_type", BType, Err))
      return false;
    if (Lanes * Reduce > (1 << 20))
      return fail(Err, "spec field '" + Path +
                           "': lanes x reduce exceeds 2^20 MACs per "
                           "instruction");
    Out = makeDotProductIntrinsic(Name, Llvm, TargetId, Lanes, Reduce, AType,
                                  BType, Cost);
    return true;
  }
  if (Kind == "mac") {
    if (!checkKnownKeys(Obj, Path,
                        {"kind", "name", "llvm", "m", "in_type", "acc_type",
                         "cost"},
                        Err))
      return false;
    int64_t M = 0;
    DataType InType, AccType;
    if (!readPositiveInt(Obj, Path, "m", 1 << 10, M, Err) ||
        !readDataTypeField(Obj, Path, "in_type", InType, Err) ||
        !readDataTypeField(Obj, Path, "acc_type", AccType, Err))
      return false;
    Out = makeMacIntrinsic(Name, Llvm, TargetId, M, InType, AccType, Cost);
    return true;
  }
  return fail(Err, "spec field '" + Path + ".kind' must be \"dot\" or "
                   "\"mac\", got '" + Kind + "'");
}

Json serializeIntrinsic(const TensorIntrinsicRef &I) {
  const ComputeOpRef &Sem = I->semantics();
  Json J = Json::object();
  TensorIntrinsicRef Rebuilt;
  if (I->accumulatesInPlace()) {
    // MxMxM in-place MAC: recover M from the first data-parallel axis,
    // input type from the A operand, accumulator type from the output.
    int64_t M = Sem->axes().empty() ? 0 : Sem->axes()[0]->extent();
    DataType InType = Sem->inputs().empty() ? DataType()
                                            : Sem->inputs()[0]->dtype();
    DataType AccType = Sem->output()->dtype();
    J.set("kind", "mac");
    J.set("name", I->name());
    J.set("llvm", I->llvmIntrinsic());
    J.set("m", M);
    J.set("in_type", InType.str());
    J.set("acc_type", AccType.str());
    Rebuilt = makeMacIntrinsic(I->name(), I->llvmIntrinsic(), I->target(), M,
                               InType, AccType, I->cost());
  } else {
    int64_t Lanes = I->outputLanes();
    int64_t Reduce = I->reduceWidth();
    DataType AType = Sem->inputs().empty() ? DataType()
                                           : Sem->inputs()[0]->dtype();
    DataType BType = Sem->inputs().size() < 2 ? DataType()
                                              : Sem->inputs()[1]->dtype();
    J.set("kind", "dot");
    J.set("name", I->name());
    J.set("llvm", I->llvmIntrinsic());
    J.set("lanes", Lanes);
    J.set("reduce", Reduce);
    J.set("a_type", AType.str());
    J.set("b_type", BType.str());
    Rebuilt = makeDotProductIntrinsic(I->name(), I->llvmIntrinsic(),
                                      I->target(), Lanes, Reduce, AType,
                                      BType, I->cost());
  }
  // The file form must reconstruct these exact semantics, or the parsed
  // spec would hash differently and every cache key would silently move.
  // Hand-written DSL intrinsics that the two builder shapes cannot
  // express have no faithful file form — refuse rather than lose bits.
  if (canonicalComputeKey(*Rebuilt->semantics()) !=
      canonicalComputeKey(*Sem))
    reportFatalError("serializeSpec: intrinsic '" + I->name() +
                     "' has hand-written semantics not expressible as a "
                     "\"dot\" or \"mac\" spec-file intrinsic");
  Json Cost = Json::object();
  Cost.set("latency_cycles", I->cost().LatencyCycles);
  Cost.set("issue_per_cycle", I->cost().IssuePerCycle);
  Cost.set("macs_per_instr", I->cost().MacsPerInstr);
  J.set("cost", std::move(Cost));
  return J;
}

const char *engineName(TargetSpec::EngineKind Engine) {
  return Engine == TargetSpec::EngineKind::CpuDot ? "cpu-dot"
                                                  : "gpu-implicit-gemm";
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

Json serializeSpec(const TargetSpec &Spec) {
  Json Doc = Json::object();
  Doc.set("version", SpecFileVersion);
  Doc.set("id", Spec.Id);
  Doc.set("description", Spec.Description);
  Doc.set("engine", engineName(Spec.Engine));
  Json Scheme = Json::object();
  Scheme.set("activation", Spec.Scheme.Activation.str());
  Scheme.set("weight", Spec.Scheme.Weight.str());
  Scheme.set("accumulator", Spec.Scheme.Accumulator.str());
  Scheme.set("lane_multiple", Spec.Scheme.LaneMultiple);
  Scheme.set("reduce_multiple", Spec.Scheme.ReduceMultiple);
  Doc.set("scheme", std::move(Scheme));
  if (Spec.Engine == TargetSpec::EngineKind::CpuDot) {
    Doc.set("cpu", machineBlockJson(Spec.Cpu));
    Doc.set("conv3d", Spec.SupportsConv3d);
  } else {
    Doc.set("gpu", machineBlockJson(Spec.Gpu));
  }
  Json Intrs = Json::array();
  for (const TensorIntrinsicRef &I : Spec.Intrinsics)
    Intrs.push(serializeIntrinsic(I));
  Doc.set("intrinsics", std::move(Intrs));
  return Doc;
}

bool parseSpec(const Json &Doc, TargetSpec &Out, std::string *Err) {
  if (!Doc.isObject())
    return fail(Err, "spec document is not an object");
  if (!checkKnownKeys(Doc, "",
                      {"version", "id", "description", "engine", "scheme",
                       "cpu", "gpu", "conv3d", "intrinsics"},
                      Err))
    return false;
  if (Doc.integer("version", -1) != SpecFileVersion)
    return fail(Err, "spec field 'version' must be " +
                         std::to_string(SpecFileVersion));

  TargetSpec Spec;
  if (!readString(Doc, "", "id", Spec.Id, Err))
    return false;
  if (Spec.Id.find('|') != std::string::npos)
    return fail(Err, "spec field 'id' must not contain '|' (the cache-key "
                     "separator)");
  const Json *Desc = Doc.get("description");
  if (Desc) {
    if (!Desc->isString())
      return fail(Err, "spec field 'description' must be a string");
    Spec.Description = Desc->asString();
  }

  std::string Engine;
  if (!readString(Doc, "", "engine", Engine, Err))
    return false;
  if (Engine == "cpu-dot")
    Spec.Engine = TargetSpec::EngineKind::CpuDot;
  else if (Engine == "gpu-implicit-gemm")
    Spec.Engine = TargetSpec::EngineKind::GpuImplicitGemm;
  else
    return fail(Err, "spec field 'engine' must be \"cpu-dot\" or "
                     "\"gpu-implicit-gemm\", got '" + Engine + "'");

  const Json *SchemeObj = Doc.get("scheme");
  if (!SchemeObj || !SchemeObj->isObject())
    return fail(Err, "spec field 'scheme' must be an object");
  if (!checkKnownKeys(*SchemeObj, "scheme",
                      {"activation", "weight", "accumulator", "lane_multiple",
                       "reduce_multiple"},
                      Err))
    return false;
  int64_t LaneMultiple = 0, ReduceMultiple = 0;
  if (!readDataTypeField(*SchemeObj, "scheme", "activation",
                         Spec.Scheme.Activation, Err) ||
      !readDataTypeField(*SchemeObj, "scheme", "weight", Spec.Scheme.Weight,
                         Err) ||
      !readDataTypeField(*SchemeObj, "scheme", "accumulator",
                         Spec.Scheme.Accumulator, Err) ||
      !readPositiveInt(*SchemeObj, "scheme", "lane_multiple", 1 << 16,
                       LaneMultiple, Err) ||
      !readPositiveInt(*SchemeObj, "scheme", "reduce_multiple", 1 << 16,
                       ReduceMultiple, Err))
    return false;
  Spec.Scheme.LaneMultiple = LaneMultiple;
  Spec.Scheme.ReduceMultiple = ReduceMultiple;

  // The machine block must agree with the engine: pricing a cpu-dot spec
  // with GPU constants (or vice versa) is an authoring error, not a
  // defaultable choice.
  const Json *Cpu = Doc.get("cpu");
  const Json *Gpu = Doc.get("gpu");
  if (Spec.Engine == TargetSpec::EngineKind::CpuDot) {
    if (Gpu)
      return fail(Err, "spec field 'gpu': engine \"cpu-dot\" takes a 'cpu' "
                       "machine block, not 'gpu'");
    if (!Cpu || !Cpu->isObject())
      return fail(Err, "spec field 'cpu' must be an object (engine is "
                       "\"cpu-dot\")");
    if (!parseMachineBlock(*Cpu, "cpu", /*Partial=*/false, Spec.Cpu, Err))
      return false;
    const Json *Conv3d = Doc.get("conv3d");
    if (Conv3d && !Conv3d->isBool())
      return fail(Err, "spec field 'conv3d' must be a boolean");
    Spec.SupportsConv3d = Conv3d ? Conv3d->asBool() : true;
  } else {
    if (Cpu)
      return fail(Err, "spec field 'cpu': engine \"gpu-implicit-gemm\" "
                       "takes a 'gpu' machine block, not 'cpu'");
    if (Doc.get("conv3d"))
      return fail(Err, "spec field 'conv3d': \"gpu-implicit-gemm\" engines "
                       "never support conv3d");
    if (!Gpu || !Gpu->isObject())
      return fail(Err, "spec field 'gpu' must be an object (engine is "
                       "\"gpu-implicit-gemm\")");
    if (!parseMachineBlock(*Gpu, "gpu", /*Partial=*/false, Spec.Gpu, Err))
      return false;
    Spec.SupportsConv3d = false;
  }

  const Json *Intrs = Doc.get("intrinsics");
  if (!Intrs || !Intrs->isArray() || Intrs->items().empty())
    return fail(Err, "spec field 'intrinsics' must be a non-empty array");
  std::unordered_set<std::string> Names;
  for (size_t I = 0; I < Intrs->items().size(); ++I) {
    std::string Path = "intrinsics[" + std::to_string(I) + "]";
    TensorIntrinsicRef Intr;
    if (!parseIntrinsic(Intrs->items()[I], Path, Spec.Id, Intr, Err))
      return false;
    if (!Names.insert(Intr->name()).second)
      return fail(Err, "spec field '" + Path + ".name': duplicate "
                       "intrinsic name '" + Intr->name() + "'");
    Spec.Intrinsics.push_back(std::move(Intr));
  }

  Out = std::move(Spec);
  return true;
}

bool parseSpecText(const std::string &Text, TargetSpec &Out,
                   std::string *Err) {
  if (Text.size() > MaxSpecFileBytes)
    return fail(Err, "spec document is " + std::to_string(Text.size()) +
                         " bytes, over the " +
                         std::to_string(MaxSpecFileBytes) + "-byte limit");
  std::string ParseErr;
  std::optional<Json> Doc = Json::parse(Text, &ParseErr);
  if (!Doc)
    return fail(Err, "spec parse error: " + ParseErr);
  return parseSpec(*Doc, Out, Err);
}

template <typename MachineT>
bool parseMachineBlock(const Json &Block, const std::string &Path,
                       bool Partial, MachineT &M, std::string *Err) {
  std::vector<std::string> Known;
  if (!Partial)
    Known.push_back("name");
  for (const MachineField<MachineT> &F : MachineT::fields())
    Known.push_back(F.Key);
  if (!checkKnownKeys(Block, Path, Known, Err))
    return false;
  if (!Partial && !readString(Block, Path, "name", M.Name, Err))
    return false;
  for (const MachineField<MachineT> &F : MachineT::fields()) {
    if (Partial && !Block.get(F.Key))
      continue;
    double Real = 0;
    int64_t Count = 0;
    if (F.Real ? !readPositiveDouble(Block, Path, F.Key, Real, Err)
               : !readPositiveInt(Block, Path, F.Key, 1 << 20, Count, Err))
      return false;
    F.set(M, F.Real ? Real : static_cast<double>(Count));
  }
  return true;
}

template bool parseMachineBlock(const Json &, const std::string &, bool,
                                CpuMachine &, std::string *);
template bool parseMachineBlock(const Json &, const std::string &, bool,
                                GpuMachine &, std::string *);

bool readCappedFile(const std::string &Path, const char *What,
                    std::string &Text, std::string *Err) {
  std::ifstream In(Path, std::ios::binary);
  // One byte past the cap is enough to know the file is over it.
  Text.resize(MaxSpecFileBytes + 1);
  In.read(&Text[0], static_cast<std::streamsize>(Text.size()));
  if (!In.is_open() || In.bad())
    return fail(Err, std::string("cannot read ") + What + " file '" + Path +
                         "'");
  Text.resize(static_cast<size_t>(In.gcount()));
  if (Text.size() > MaxSpecFileBytes)
    return fail(Err, std::string(What) + " file '" + Path + "' is over the " +
                         std::to_string(MaxSpecFileBytes) + "-byte limit");
  return true;
}

bool loadSpecFile(const std::string &Path, TargetSpec &Out,
                  std::string *Err) {
  std::string Text;
  if (!readCappedFile(Path, "spec", Text, Err))
    return false;
  if (!parseSpecText(Text, Out, Err)) {
    if (Err)
      *Err = "spec file '" + Path + "': " + *Err;
    return false;
  }
  return true;
}

TargetBackendRef registerSpecFile(const std::string &Path, std::string *Err) {
  TargetSpec Spec;
  if (!loadSpecFile(Path, Spec, Err))
    return nullptr;
  // Everything validate() would abort on was already checked non-fatally
  // by parseSpec, so registration cannot fire the fatal path on file
  // input.
  return TargetRegistry::instance().registerSpec(std::move(Spec),
                                                 SpecSource::File);
}

} // namespace unit
