// Model-artifact bundles: everything the inference path needs, in one
// self-describing file (.fcm).
//
// A bundle packages the trained GCN classifier, the optional §3.4
// regressor, the feature Standardizer, the stimulus profiles the golden
// statistics were estimated under, and a manifest (design name, netlist
// content hash, the PipelineConfig provenance the score path must replay,
// format version). Loading validates strictly: a wrong magic/version,
// truncated section, or a feature-width disagreement between manifest,
// standardizer and models raises a typed BundleError instead of producing
// a silently-wrong model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/graphir/features.hpp"
#include "src/ml/gcn.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sim/stimulus.hpp"

namespace fcrit::serve {

inline constexpr int kBundleFormatVersion = 1;

/// Largest probability_cycles a bundle may carry, 128x the default 512:
/// pack_bundle and load_bundle reject a value outside [1, this] as
/// kMalformed, which bounds the golden simulation every score replays.
inline constexpr int kMaxProbabilityCycles = 65536;

/// Largest bundle file fcrit reads, in bytes: 16 MiB, about 200x the 75 KB
/// bundle `fcrit pack or1200_icfsm` writes. read_bundle_file, the one
/// reader of bundle files, enforces it.
inline constexpr std::uint64_t kMaxBundleBytes = std::uint64_t{16} << 20;

enum class BundleErrorCode {
  kIo,                    // file unreadable / unwritable
  kBadMagic,              // not a bundle at all
  kBadVersion,            // bundle from a different format version
  kMalformed,             // header parsed but a field is inconsistent
  kTruncated,             // stream ended inside a section
  kFeatureWidthMismatch,  // manifest vs standardizer vs model widths
  kNetlistHashMismatch,   // strict scoring of a netlist the bundle was
                          // not trained on
  kTooLarge,              // file over kMaxBundleBytes
};

std::string_view to_string(BundleErrorCode code);

class BundleError : public std::runtime_error {
 public:
  BundleError(BundleErrorCode code, const std::string& message);
  BundleErrorCode code() const { return code_; }

 private:
  BundleErrorCode code_;
};

struct BundleManifest {
  int format_version = kBundleFormatVersion;
  std::string design_name;
  /// netlist_content_hash() of the training netlist.
  std::uint64_t netlist_hash = 0;
  int feature_width = 0;
  std::vector<std::string> feature_names;

  // PipelineConfig provenance: the score path replays the golden
  // simulation with exactly these parameters so features (and therefore
  // predictions) are bit-identical to the training-time pipeline.
  int probability_cycles = 0;
  std::uint64_t probability_seed = 0;
  double criticality_threshold = 0.5;
};

/// Const models: every scoring worker shares them via GcnModel::infer().
struct ModelBundle {
  BundleManifest manifest;
  sim::StimulusSpec stimulus;
  graphir::Standardizer standardizer;
  std::unique_ptr<const ml::GcnModel> classifier;
  std::unique_ptr<const ml::GcnModel> regressor;  // null when not trained
};

inline constexpr std::uint64_t kFnv1a64Basis = 1469598103934665603ULL;

/// FNV-1a 64-bit hash of a byte string. Pass the hash of the bytes before
/// as `state` to hash a text fed in pieces.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t state = kFnv1a64Basis);

/// Canonical content hash of a netlist: FNV-1a over its structural Verilog
/// emitted in the order parse_verilog numbers nodes (netlist::parse_order),
/// streamed without building the text. That order is a fixed point of an
/// export → parse round trip, so hash(design) == hash(parse(exported .v)),
/// independent of the container (.v, .bench or in-memory).
std::uint64_t netlist_content_hash(const netlist::Netlist& nl);

/// Package the trained artifacts of a pipeline run. Requires result.gcn;
/// the regressor is included when present.
ModelBundle pack_bundle(const core::PipelineResult& result);

void save_bundle(const ModelBundle& bundle, std::ostream& os);
void save_bundle_file(const ModelBundle& bundle, const std::string& path);

/// Strict-validation load; throws BundleError on any inconsistency.
ModelBundle load_bundle(std::istream& is);
/// load_bundle over the bytes read_bundle_file(path) returns.
ModelBundle load_bundle_file(const std::string& path);

/// The bytes of a bundle file, at most kMaxBundleBytes of them. Throws
/// BundleError kIo when the file cannot be opened, and kTooLarge for a
/// regular file over the limit (refused by its size before it is read) or
/// a read that passes it (a file that grew, a pipe, a device).
std::string read_bundle_file(const std::string& path);

}  // namespace fcrit::serve
