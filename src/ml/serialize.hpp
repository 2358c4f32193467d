// Model persistence: save/load a trained GCN (architecture + weights) in a
// small self-describing text format, so a model trained once on a design
// can be shipped and reused for inference without re-running the FI
// campaign. The feature Standardizer serializes alongside (its statistics
// are part of the deployed artifact).
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "src/graphir/features.hpp"
#include "src/ml/gcn.hpp"

namespace fcrit::ml {

/// Limits load_gcn checks every `.gcn` header field against before it
/// builds a model, so a hostile header cannot size the weights or the
/// per-node workspace (docs/FORMATS.md).
inline constexpr int kMaxGcnInFeatures = 256;
inline constexpr int kMaxGcnHiddenLayers = 16;
inline constexpr int kMaxGcnWidth = 1024;

/// A `.gcn` header field that fails to parse or lies outside its limit.
/// Bundle loading reports it as BundleErrorCode::kMalformed.
class GcnHeaderError : public std::runtime_error {
 public:
  GcnHeaderError(const std::string& field, const std::string& detail)
      : std::runtime_error("load_gcn: header field '" + field + "' " +
                           detail),
        field_(field) {}
  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

void save_gcn(const GcnModel& model, std::ostream& os);
/// Throws GcnHeaderError for a bad header field, std::runtime_error for
/// anything else.
GcnModel load_gcn(std::istream& is);

void save_standardizer(const graphir::Standardizer& s, std::ostream& os);
/// Throws std::runtime_error naming the field 'width' when the stored
/// width lies outside [0, kMaxGcnInFeatures], before anything is sized
/// from it, and for any other malformed input.
graphir::Standardizer load_standardizer(std::istream& is);

/// `fcrit analyze --save-model`'s writer; throws std::runtime_error on
/// I/O failure. Nothing reads a loose `.gcn` file back: a deployed model
/// travels inside a bundle, read through serve::read_bundle_file's limit.
void save_gcn_file(const GcnModel& model, const std::string& path);

/// Deep copy via a fresh model of the same architecture: a bundle's copy of
/// a pipeline's models. Scoring needs none; workers share one model through
/// the const GcnModel::infer().
GcnModel clone_gcn(const GcnModel& model);

/// Read one whitespace-delimited token and require it to equal `expected`;
/// throws std::runtime_error otherwise. Exposed so composite formats
/// (serve::ModelBundle) parse their section headers the same way.
void expect_token(std::istream& is, const std::string& expected);

}  // namespace fcrit::ml
