//===- target/MachineOverlay.h - Measured machine-model refit --------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loads a *machine overlay*: a JSON file that replaces selected
/// machine-model constants of already-registered TargetSpecs with values
/// refit from measurements (docs/TUNING.md "Cost-model refit"). The
/// overlay rides the existing spec-revision mechanism — each refit target
/// is re-registered through TargetRegistry::registerSpec, so its spec
/// hash changes, every cache key moves, and the persisted-cache
/// fingerprint rejects kernels tuned under the factory constants. Nothing
/// downstream needs to know a refit happened.
///
/// Overlay schema (written by tools/unit_refit, hand-editable; a worked
/// example is in docs/TUNING.md):
///
///   { "version": 1,
///     "refit": [ { "target": ID, "cpu": PARTIAL-MACHINE-BLOCK }, ... ] }
///
/// with "gpu" in place of "cpu" for GPU targets. The block is a *partial*
/// spec-file machine block, read by parseMachineBlock (target/SpecFile.h):
/// any subset of the rows of CpuMachine::fields / GpuMachine::fields
/// (perf/MachineModel.h), and no "name". Absent fields keep their
/// registered values. The block must match the target's engine. Errors
/// name the JSON path ("refit[0].cpu.freq_ghz"). Application is
/// all-or-nothing: every entry is validated against the registry before
/// any spec is replaced.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_TARGET_MACHINEOVERLAY_H
#define UNIT_TARGET_MACHINEOVERLAY_H

#include <string>

namespace unit {

/// Parses \p Text as an overlay document and re-registers every listed
/// target with its refit machine model. Returns false (registry
/// untouched) with \p Err filled on malformed JSON, an unknown version,
/// an unregistered or non-spec-registered target, an engine/block
/// mismatch, or a non-finite / non-positive refit value. On success sets
/// the process-wide machineOverlayActive() flag.
bool applyMachineOverlayText(const std::string &Text, std::string *Err);

/// Reads \p Path (size-capped at MaxSpecFileBytes, like spec files) and
/// applies it via applyMachineOverlayText.
bool applyMachineOverlayFile(const std::string &Path, std::string *Err);

/// True once any overlay has been applied in this process. Surfaced as
/// "refit_active" in the compile server's stats reply so operators can
/// tell refit daemons from factory-constant ones.
bool machineOverlayActive();

} // namespace unit

#endif // UNIT_TARGET_MACHINEOVERLAY_H
