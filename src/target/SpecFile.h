//===- target/SpecFile.h - Target specs as JSON files ---------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ACT thesis made operational: a compiler backend is *data*. This
/// header defines a JSON file format for TargetSpec — target id, engine
/// kind, quantization scheme, machine-model parameters (the rows of
/// CpuMachine::fields / GpuMachine::fields), and the intrinsic set — so
/// a new backend is a file dropped next to the daemon
/// (`unit_serve --target-spec my-npu.json`) or a `register_target` wire
/// message, with zero rebuilds. Parsed with the server's own Json
/// (server/Protocol.h); no new dependency.
///
/// serializeSpec and parseSpec are exact inverses: parse(serialize(S))
/// produces a spec with an identical hash() — and therefore identical
/// cache keys and persistence fingerprints — because Json round-trips
/// doubles bit-exactly (shortest-form dump, from_chars parse) and every
/// intrinsic is rebuilt through the same generic builders
/// (makeDotProductIntrinsic / makeMacIntrinsic) the builtins use, so the
/// canonical semantics keys match too. tests/test_specfile.cpp locks this
/// with golden files under tests/data/specs/.
///
/// Parsing is all-or-nothing in the MachineOverlay mold: every field is
/// validated (unknown keys, dtype spellings, positivity, duplicate
/// intrinsic names, engine/machine-block agreement) before anything is
/// registered, and errors name the offending JSON path
/// ("intrinsics[2].lanes"). A rejected document leaves the registry
/// untouched. Schema reference: docs/BACKENDS.md "Specs as files".
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_TARGET_SPECFILE_H
#define UNIT_TARGET_SPECFILE_H

#include "server/Protocol.h"
#include "target/TargetRegistry.h"
#include "target/TargetSpec.h"

#include <string>

namespace unit {

/// Spec documents (file or wire) larger than this are rejected before
/// parsing: a backend description is a few KB, and the register_target
/// handler must not let one frame balloon the registry.
constexpr size_t MaxSpecFileBytes = 1u << 20;

/// The schema revision `version` must carry. Renames/removals bump it;
/// additions do not (unknown keys are rejected, so additions *are*
/// breaking for old parsers — bump on any schema change).
constexpr int SpecFileVersion = 1;

/// Serializes \p Spec to its canonical JSON document. Fatal-errors when
/// an intrinsic's semantics are not expressible as one of the two generic
/// builder shapes (dot / mac) — hand-written DSL intrinsics have no
/// faithful file form, and a lossy serialization would break the
/// hash-preservation contract.
Json serializeSpec(const TargetSpec &Spec);

/// Parses one spec document into \p Out. All-or-nothing: returns false
/// with \p Err naming the offending JSON path and leaves \p Out
/// unspecified; no global state is touched either way.
bool parseSpec(const Json &Doc, TargetSpec &Out, std::string *Err);

/// Json::parse + parseSpec, with the over-size guard applied to \p Text.
bool parseSpecText(const std::string &Text, TargetSpec &Out,
                   std::string *Err);

/// Reads \p Path into \p Text, refusing a file over MaxSpecFileBytes
/// without reading past the cap. Spec files and machine overlays are both
/// untrusted input and both come through here; \p What ("spec",
/// "overlay") names the document in errors.
bool readCappedFile(const std::string &Path, const char *What,
                    std::string &Text, std::string *Err);

/// Reads and parses \p Path (size-capped at MaxSpecFileBytes).
bool loadSpecFile(const std::string &Path, TargetSpec &Out, std::string *Err);

/// Reads the machine block \p Block, found at JSON path \p Path ("cpu",
/// "refit[0].gpu"), into \p M by walking MachineT::fields()
/// (perf/MachineModel.h). A full block — a spec file's — needs "name" and
/// every field: a defaulted machine constant would silently misprice every
/// kernel compiled under the spec. A partial block — a machine overlay's —
/// takes any subset of the fields and no "name"; absent fields keep their
/// values in \p M. Unknown keys are errors either way, and every error
/// names the JSON path. \p M is unspecified on failure. Instantiated for
/// CpuMachine and GpuMachine.
template <typename MachineT>
bool parseMachineBlock(const Json &Block, const std::string &Path,
                       bool Partial, MachineT &M, std::string *Err);

/// loadSpecFile + TargetRegistry::registerSpec with SpecSource::File —
/// the `unit_serve --target-spec` entry point. Returns the materialized
/// backend, or null with \p Err set (registry untouched).
TargetBackendRef registerSpecFile(const std::string &Path, std::string *Err);

} // namespace unit

#endif // UNIT_TARGET_SPECFILE_H
