//===- target/MachineOverlay.cpp - Measured machine-model refit ------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//

#include "target/MachineOverlay.h"

#include "server/Protocol.h" // Json — the repo's one JSON implementation.
#include "target/SpecFile.h"
#include "target/TargetRegistry.h"

#include <atomic>
#include <vector>

namespace unit {

namespace {

std::atomic<bool> OverlayActive{false};

bool fail(std::string *Err, std::string Msg) {
  if (Err)
    *Err = std::move(Msg);
  return false;
}

} // namespace

bool applyMachineOverlayText(const std::string &Text, std::string *Err) {
  std::string ParseErr;
  std::optional<Json> Doc = Json::parse(Text, &ParseErr);
  if (!Doc)
    return fail(Err, "overlay parse error: " + ParseErr);
  if (!Doc->isObject())
    return fail(Err, "overlay document is not an object");
  if (Doc->integer("version", -1) != 1)
    return fail(Err, "overlay field 'version' must be 1");
  const Json *Refit = Doc->get("refit");
  if (!Refit || !Refit->isArray() || Refit->items().empty())
    return fail(Err, "overlay field 'refit' must be a non-empty array");

  // Validate every entry against the live registry and build the refit
  // specs first; only a fully valid document mutates any registration.
  // Errors name the JSON path, as spec-file errors do.
  TargetRegistry &Registry = TargetRegistry::instance();
  std::vector<TargetSpec> Updated;
  std::vector<SpecSource> UpdatedSources;
  for (size_t I = 0; I < Refit->items().size(); ++I) {
    const Json &Entry = Refit->items()[I];
    std::string Path = "refit[" + std::to_string(I) + "]";
    if (!Entry.isObject())
      return fail(Err, "overlay field '" + Path + "' must be an object");
    std::string Target = Entry.str("target");
    if (Target.empty())
      return fail(Err, "overlay field '" + Path +
                           ".target' must be a non-empty string");
    std::string AtTarget =
        "overlay field '" + Path + ".target': target '" + Target + "'";
    for (const TargetSpec &Prev : Updated)
      if (Prev.Id == Target)
        return fail(Err, AtTarget + " is listed twice");
    if (!Registry.lookup(Target))
      return fail(Err, AtTarget + " is not registered");
    if (!Registry.hasSpecFor(Target))
      return fail(Err, AtTarget +
                           " is a hand-written backend (no spec to refit)");
    TargetSpec Spec = Registry.specFor(Target);

    // The block is a partial machine block of the spec-file schema: the
    // spec reader validates it against the same field table.
    const Json *Cpu = Entry.get("cpu");
    const Json *Gpu = Entry.get("gpu");
    if ((Cpu != nullptr) == (Gpu != nullptr))
      return fail(Err, "overlay field '" + Path +
                           "' needs exactly one of 'cpu' / 'gpu'");
    bool IsCpu = Spec.Engine == TargetSpec::EngineKind::CpuDot;
    std::string BlockPath = Path + (Cpu ? ".cpu" : ".gpu");
    if ((Cpu != nullptr) != IsCpu)
      return fail(Err, "overlay field '" + BlockPath + "': target '" +
                           Target + "' is a " + (IsCpu ? "CPU" : "GPU") +
                           " target and takes a '" + (IsCpu ? "cpu" : "gpu") +
                           "' block");
    if (!(Cpu ? Cpu : Gpu)->isObject())
      return fail(Err, "overlay field '" + BlockPath + "' must be an object");
    bool Ok = Cpu ? parseMachineBlock(*Cpu, BlockPath, /*Partial=*/true,
                                      Spec.Cpu, Err)
                  : parseMachineBlock(*Gpu, BlockPath, /*Partial=*/true,
                                      Spec.Gpu, Err);
    if (!Ok)
      return false;
    Updated.push_back(std::move(Spec));
    // A refit changes constants, not provenance: a file-loaded spec
    // stays "file" in list_targets after the overlay lands.
    UpdatedSources.push_back(Registry.specSourceFor(Target));
  }

  // registerSpec re-hashes each spec, so cache keys and the persistence
  // fingerprint move with the refit constants automatically.
  for (size_t I = 0; I < Updated.size(); ++I)
    Registry.registerSpec(std::move(Updated[I]), UpdatedSources[I]);
  OverlayActive.store(true, std::memory_order_relaxed);
  return true;
}

bool applyMachineOverlayFile(const std::string &Path, std::string *Err) {
  std::string Text;
  return readCappedFile(Path, "overlay", Text, Err) &&
         applyMachineOverlayText(Text, Err);
}

bool machineOverlayActive() {
  return OverlayActive.load(std::memory_order_relaxed);
}

} // namespace unit
