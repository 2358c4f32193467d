#include "src/serve/bundle.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "src/ml/serialize.hpp"
#include "src/netlist/verilog_writer.hpp"
#include "src/util/text.hpp"

namespace fcrit::serve {

namespace {

constexpr const char* kMagicPrefix = "fcrit-bundle-v";

std::string magic_line() {
  return std::string(kMagicPrefix) + std::to_string(kBundleFormatVersion);
}

[[noreturn]] void fail(BundleErrorCode code, const std::string& detail) {
  throw BundleError(code, detail);
}

[[noreturn]] void fail_too_large(const std::string& path,
                                 std::uintmax_t bytes) {
  fail(BundleErrorCode::kTooLarge,
       path + ": " + std::to_string(bytes) + " bytes exceed the limit of " +
           std::to_string(kMaxBundleBytes) + " bytes");
}

void check_probability_cycles(int cycles) {
  if (cycles < 1 || cycles > kMaxProbabilityCycles)
    fail(BundleErrorCode::kMalformed,
         "probability_cycles " + std::to_string(cycles) + " outside [1, " +
             std::to_string(kMaxProbabilityCycles) + "]");
}

/// Rest-of-line string field (names may contain spaces).
std::string read_line_field(std::istream& is) {
  std::string value;
  std::getline(is >> std::ws, value);
  return std::string(util::trim(value));
}

void write_profile(std::ostream& os, const sim::InputProfile& p) {
  os << p.p1 << " " << p.hold_cycles << " " << (p.hold_value ? 1 : 0);
}

sim::InputProfile read_profile(std::istream& is) {
  sim::InputProfile p;
  int hold_value = 0;
  is >> p.p1 >> p.hold_cycles >> hold_value;
  p.hold_value = hold_value != 0;
  return p;
}

}  // namespace

std::string_view to_string(BundleErrorCode code) {
  switch (code) {
    case BundleErrorCode::kIo: return "io-error";
    case BundleErrorCode::kBadMagic: return "bad-magic";
    case BundleErrorCode::kBadVersion: return "bad-version";
    case BundleErrorCode::kMalformed: return "malformed";
    case BundleErrorCode::kTruncated: return "truncated";
    case BundleErrorCode::kFeatureWidthMismatch:
      return "feature-width-mismatch";
    case BundleErrorCode::kNetlistHashMismatch:
      return "netlist-hash-mismatch";
    case BundleErrorCode::kTooLarge: return "too-large";
  }
  return "unknown";
}

BundleError::BundleError(BundleErrorCode code, const std::string& message)
    : std::runtime_error("bundle [" + std::string(to_string(code)) + "] " +
                         message),
      code_(code) {}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) {
  for (const unsigned char c : bytes) {
    state ^= c;
    state *= 1099511628211ULL;
  }
  return state;
}

namespace {

/// Hashes the emitter's text as it streams by.
class HashSink final : public netlist::VerilogSink {
 public:
  void write(std::string_view text) override { hash = fnv1a64(text, hash); }
  std::uint64_t hash = kFnv1a64Basis;
};

}  // namespace

std::uint64_t netlist_content_hash(const netlist::Netlist& nl) {
  HashSink sink;
  netlist::emit_verilog(nl, netlist::parse_order(nl), sink);
  return sink.hash;
}

ModelBundle pack_bundle(const core::PipelineResult& result) {
  if (!result.gcn)
    fail(BundleErrorCode::kMalformed, "pack: pipeline result has no GCN");
  check_probability_cycles(result.config.probability_cycles);
  ModelBundle b;
  b.manifest.design_name = result.design.name;
  b.manifest.netlist_hash = netlist_content_hash(result.design.netlist);
  b.manifest.feature_width = result.features.cols();
  b.manifest.feature_names = graphir::base_feature_names();
  b.manifest.probability_cycles = result.config.probability_cycles;
  b.manifest.probability_seed = result.config.probability_seed;
  b.manifest.criticality_threshold = result.config.criticality_threshold;
  b.stimulus = result.design.stimulus;
  b.standardizer = result.standardizer;
  b.classifier = std::make_unique<ml::GcnModel>(ml::clone_gcn(*result.gcn));
  if (result.regressor)
    b.regressor =
        std::make_unique<ml::GcnModel>(ml::clone_gcn(*result.regressor));
  return b;
}

void save_bundle(const ModelBundle& bundle, std::ostream& os) {
  const BundleManifest& m = bundle.manifest;
  os << magic_line() << "\n";
  os << "design " << m.design_name << "\n";
  os << "netlist_hash " << std::hex << m.netlist_hash << std::dec << "\n";
  os << "probability_cycles " << m.probability_cycles << "\n";
  os << "probability_seed " << m.probability_seed << "\n";
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "criticality_threshold " << m.criticality_threshold << "\n";
  os << "feature_width " << m.feature_width << "\n";
  for (const auto& name : m.feature_names) os << "feature " << name << "\n";

  const sim::StimulusSpec& s = bundle.stimulus;
  os << "stimulus\n";
  os << "activity " << s.activity_min << " " << s.activity_max << "\n";
  os << "p1_scale " << s.p1_scale_min << " " << s.p1_scale_max << "\n";
  os << "default_profile ";
  write_profile(os, s.default_profile);
  os << "\n";
  // Sorted so identical bundles serialize to identical bytes (the serve
  // cache keys on file content).
  std::vector<std::string> names;
  names.reserve(s.profiles.size());
  for (const auto& [name, _] : s.profiles) names.push_back(name);
  std::sort(names.begin(), names.end());
  os << "profiles " << names.size() << "\n";
  for (const auto& name : names) {
    os << name << " ";
    write_profile(os, s.profiles.at(name));
    os << "\n";
  }

  os << "standardizer\n";
  ml::save_standardizer(bundle.standardizer, os);
  os << "classifier\n";
  ml::save_gcn(*bundle.classifier, os);
  os << "regressor " << (bundle.regressor ? 1 : 0) << "\n";
  if (bundle.regressor) ml::save_gcn(*bundle.regressor, os);
  os << "end\n";
}

void save_bundle_file(const ModelBundle& bundle, const std::string& path) {
  std::ofstream os(path);
  if (!os) fail(BundleErrorCode::kIo, "cannot open " + path + " for write");
  save_bundle(bundle, os);
  if (!os) fail(BundleErrorCode::kIo, "short write to " + path);
}

ModelBundle load_bundle(std::istream& is) {
  std::string magic;
  is >> magic;
  if (!is || !util::starts_with(magic, kMagicPrefix)) {
    if (util::starts_with(magic, "fcrit-"))
      fail(BundleErrorCode::kBadMagic,
           "'" + magic + "' is a different fcrit artifact, not a bundle");
    fail(BundleErrorCode::kBadMagic, "not a model bundle");
  }
  if (magic != magic_line())
    fail(BundleErrorCode::kBadVersion,
         "got " + magic + ", this build reads " + magic_line());

  ModelBundle b;
  BundleManifest& m = b.manifest;
  try {
    ml::expect_token(is, "design");
    m.design_name = read_line_field(is);
    ml::expect_token(is, "netlist_hash");
    is >> std::hex >> m.netlist_hash >> std::dec;
    ml::expect_token(is, "probability_cycles");
    is >> m.probability_cycles;
    // A failed read falls through to the next token check, which tells a
    // truncated stream from a malformed one.
    if (is) check_probability_cycles(m.probability_cycles);
    ml::expect_token(is, "probability_seed");
    is >> m.probability_seed;
    ml::expect_token(is, "criticality_threshold");
    is >> m.criticality_threshold;
    ml::expect_token(is, "feature_width");
    is >> m.feature_width;
    if (!is || m.feature_width <= 0)
      fail(BundleErrorCode::kMalformed, "bad feature_width");
    for (int i = 0; i < m.feature_width; ++i) {
      ml::expect_token(is, "feature");
      m.feature_names.push_back(read_line_field(is));
    }

    ml::expect_token(is, "stimulus");
    sim::StimulusSpec& s = b.stimulus;
    ml::expect_token(is, "activity");
    is >> s.activity_min >> s.activity_max;
    ml::expect_token(is, "p1_scale");
    is >> s.p1_scale_min >> s.p1_scale_max;
    ml::expect_token(is, "default_profile");
    s.default_profile = read_profile(is);
    ml::expect_token(is, "profiles");
    std::size_t num_profiles = 0;
    is >> num_profiles;
    if (!is) fail(BundleErrorCode::kTruncated, "stimulus section");
    // The count is untrusted: stop at the first failed read rather than
    // spin through a count the stream cannot hold.
    for (std::size_t i = 0; i < num_profiles; ++i) {
      std::string name;
      is >> name;
      const sim::InputProfile profile = read_profile(is);
      if (!is)
        fail(is.eof() ? BundleErrorCode::kTruncated
                      : BundleErrorCode::kMalformed,
             "stimulus profile " + std::to_string(i) + " of " +
                 std::to_string(num_profiles));
      s.profiles[name] = profile;
    }

    ml::expect_token(is, "standardizer");
    b.standardizer = ml::load_standardizer(is);
    ml::expect_token(is, "classifier");
    b.classifier = std::make_unique<ml::GcnModel>(ml::load_gcn(is));
    ml::expect_token(is, "regressor");
    int has_regressor = 0;
    is >> has_regressor;
    if (has_regressor)
      b.regressor = std::make_unique<ml::GcnModel>(ml::load_gcn(is));
    if (!is) fail(BundleErrorCode::kTruncated, "model section");
    std::string trailer;
    is >> trailer;
    if (trailer != "end")
      fail(BundleErrorCode::kTruncated, "missing end marker");
  } catch (const BundleError&) {
    throw;
  } catch (const ml::GcnHeaderError& e) {
    fail(BundleErrorCode::kMalformed, e.what());
  } catch (const std::exception& e) {
    // ml::serialize throws plain runtime_errors; a mid-section failure on
    // an otherwise well-formed bundle means the stream ended early.
    fail(is.eof() ? BundleErrorCode::kTruncated : BundleErrorCode::kMalformed,
         e.what());
  }

  const int width = m.feature_width;
  if (static_cast<int>(b.standardizer.mean.size()) != width ||
      static_cast<int>(b.standardizer.stddev.size()) != width)
    fail(BundleErrorCode::kFeatureWidthMismatch,
         "standardizer width " + std::to_string(b.standardizer.mean.size()) +
             " vs manifest " + std::to_string(width));
  if (b.classifier->in_features() != width)
    fail(BundleErrorCode::kFeatureWidthMismatch,
         "classifier expects " + std::to_string(b.classifier->in_features()) +
             " features, manifest declares " + std::to_string(width));
  if (b.regressor && b.regressor->in_features() != width)
    fail(BundleErrorCode::kFeatureWidthMismatch,
         "regressor expects " + std::to_string(b.regressor->in_features()) +
             " features, manifest declares " + std::to_string(width));
  return b;
}

ModelBundle load_bundle_file(const std::string& path) {
  std::istringstream is(read_bundle_file(path));
  return load_bundle(is);
}

// A sized file is read in one call, with room for a byte more in case it
// grew; a pipe, which has no size, in 64 KiB chunks. No read goes more
// than one byte past the limit.
std::string read_bundle_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail(BundleErrorCode::kIo, "cannot open " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > kMaxBundleBytes) fail_too_large(path, size);
  std::string bytes;
  std::size_t chunk = ec ? std::size_t{1} << 16 : size + 1;
  while (true) {
    const std::size_t have = bytes.size();
    const std::size_t want = std::min(chunk, kMaxBundleBytes + 1 - have);
    bytes.resize(have + want);
    is.read(bytes.data() + have, static_cast<std::streamsize>(want));
    bytes.resize(have + static_cast<std::size_t>(is.gcount()));
    if (bytes.size() > kMaxBundleBytes) fail_too_large(path, bytes.size());
    if (bytes.size() < have + want) return bytes;
    chunk = std::size_t{1} << 16;
  }
}

}  // namespace fcrit::serve
