#include "src/ml/serialize.hpp"

#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace fcrit::ml {

namespace {
constexpr const char* kMagic = "fcrit-gcn-v1";
constexpr const char* kStdMagic = "fcrit-standardizer-v1";
}  // namespace

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  is >> token;
  if (token != expected)
    throw std::runtime_error("load: expected '" + expected + "', got '" +
                             token + "'");
}

void save_gcn(const GcnModel& model, std::ostream& os) {
  const GcnConfig& cfg = model.config();
  os << kMagic << "\n";
  os << "in_features " << model.in_features() << "\n";
  os << "hidden " << cfg.hidden.size();
  for (const int h : cfg.hidden) os << " " << h;
  os << "\n";
  os << "output_dim " << cfg.output_dim << "\n";
  os << "log_softmax " << (cfg.log_softmax ? 1 : 0) << "\n";
  os << "dropout " << cfg.dropout << "\n";
  os << "dropout_after " << cfg.dropout_after << "\n";

  auto params = const_cast<GcnModel&>(model).params();
  os << "params " << params.size() << "\n";
  os.precision(std::numeric_limits<float>::max_digits10);
  for (const Param& p : params) {
    os << p.value->rows() << " " << p.value->cols() << "\n";
    for (int i = 0; i < p.value->rows(); ++i) {
      const auto row = p.value->row(i);
      for (int j = 0; j < p.value->cols(); ++j) {
        if (j) os << " ";
        os << row[j];
      }
      os << "\n";
    }
  }
}

namespace {

/// Reads one header value of `field`. A read that fails at the end of the
/// stream is a truncation (plain runtime_error); any other failed read is
/// a bad field.
template <typename T>
T read_header_value(std::istream& is, const std::string& field) {
  T value{};
  is >> value;
  if (!is) {
    if (is.eof())
      throw std::runtime_error("load_gcn: truncated at '" + field + "'");
    throw GcnHeaderError(field, "does not parse as a number");
  }
  return value;
}

/// An integer header value of `field` in [lo, hi].
int read_header_int(std::istream& is, const std::string& field, long long lo,
                    long long hi) {
  const auto value = read_header_value<long long>(is, field);
  if (value < lo || value > hi)
    throw GcnHeaderError(field, "= " + std::to_string(value) +
                                    " is outside [" + std::to_string(lo) +
                                    ", " + std::to_string(hi) + "]");
  return static_cast<int>(value);
}

}  // namespace

GcnModel load_gcn(std::istream& is) {
  expect_token(is, kMagic);
  // Every field is checked before anything is sized from it.
  GcnConfig cfg;
  expect_token(is, "in_features");
  const int in_features =
      read_header_int(is, "in_features", 1, kMaxGcnInFeatures);
  expect_token(is, "hidden");
  cfg.hidden.resize(static_cast<std::size_t>(
      read_header_int(is, "hidden", 1, kMaxGcnHiddenLayers)));
  for (std::size_t k = 0; k < cfg.hidden.size(); ++k)
    cfg.hidden[k] = read_header_int(is, "hidden[" + std::to_string(k) + "]",
                                    1, kMaxGcnWidth);
  expect_token(is, "output_dim");
  cfg.output_dim = read_header_int(is, "output_dim", 1, 2);
  expect_token(is, "log_softmax");
  cfg.log_softmax = read_header_int(is, "log_softmax", 0, 1) != 0;
  expect_token(is, "dropout");
  cfg.dropout = read_header_value<double>(is, "dropout");
  if (!(cfg.dropout >= 0.0 && cfg.dropout < 1.0))  // also NaN
    throw GcnHeaderError("dropout", "is outside [0, 1)");
  expect_token(is, "dropout_after");
  cfg.dropout_after = read_header_int(
      is, "dropout_after", -1, static_cast<long long>(cfg.hidden.size()) - 1);

  GcnModel model(in_features, cfg);
  expect_token(is, "params");
  std::size_t num_params = 0;
  is >> num_params;
  auto params = model.params();
  if (num_params != params.size())
    throw std::runtime_error("load_gcn: parameter count mismatch");
  for (Param& p : params) {
    int rows = 0, cols = 0;
    is >> rows >> cols;
    if (rows != p.value->rows() || cols != p.value->cols())
      throw std::runtime_error("load_gcn: parameter shape mismatch");
    for (int i = 0; i < rows; ++i) {
      auto row = p.value->row(i);
      for (int j = 0; j < cols; ++j) is >> row[j];
    }
  }
  if (!is) throw std::runtime_error("load_gcn: truncated weights");
  return model;
}

void save_standardizer(const graphir::Standardizer& s, std::ostream& os) {
  os << kStdMagic << "\n" << s.mean.size() << "\n";
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const double m : s.mean) os << m << " ";
  os << "\n";
  for (const double d : s.stddev) os << d << " ";
  os << "\n";
}

graphir::Standardizer load_standardizer(std::istream& is) {
  expect_token(is, kStdMagic);
  // The width sizes both vectors, so it is checked before either is: a
  // standardizer feeds a GCN's input, which has at most kMaxGcnInFeatures.
  long long n = 0;
  is >> n;
  if (!is)
    throw std::runtime_error(
        "load_standardizer: field 'width' does not parse as a number");
  if (n < 0 || n > kMaxGcnInFeatures)
    throw std::runtime_error(
        "load_standardizer: field 'width' = " + std::to_string(n) +
        " is outside [0, " + std::to_string(kMaxGcnInFeatures) + "]");
  graphir::Standardizer s;
  s.mean.resize(static_cast<std::size_t>(n));
  s.stddev.resize(static_cast<std::size_t>(n));
  for (double& m : s.mean) is >> m;
  for (double& d : s.stddev) is >> d;
  if (!is) throw std::runtime_error("load_standardizer: malformed input");
  return s;
}

void save_gcn_file(const GcnModel& model, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_gcn_file: cannot open " + path);
  save_gcn(model, os);
}

GcnModel clone_gcn(const GcnModel& model) {
  GcnModel copy(model.in_features(), model.config());
  copy.copy_params_from(model);
  return copy;
}

}  // namespace fcrit::ml
