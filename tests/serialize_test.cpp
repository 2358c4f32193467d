#include "src/ml/serialize.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace fcrit::ml {
namespace {

SparseMatrix chain(int n) {
  std::vector<Coo> entries;
  for (int i = 0; i < n; ++i) entries.push_back({i, i, 0.5f});
  for (int i = 0; i + 1 < n; ++i) {
    entries.push_back({i, i + 1, 0.5f});
    entries.push_back({i + 1, i, 0.5f});
  }
  return SparseMatrix::from_coo(n, n, entries);
}

TEST(Serialize, GcnRoundTripPreservesPredictions) {
  const auto adj = chain(9);
  GcnConfig cfg = GcnConfig::classifier();
  cfg.hidden = {8, 4};
  cfg.seed = 3;
  GcnModel original(4, cfg);
  original.set_adjacency(&adj);
  util::Rng rng(1);
  const Matrix x = Matrix::randn(9, 4, rng, 1.0f);
  const Matrix expect = original.forward(x, false);

  std::stringstream buffer;
  save_gcn(original, buffer);
  GcnModel loaded = load_gcn(buffer);
  loaded.set_adjacency(&adj);
  const Matrix got = loaded.forward(x, false);
  ASSERT_EQ(got.rows(), expect.rows());
  ASSERT_EQ(got.cols(), expect.cols());
  for (int i = 0; i < got.rows(); ++i)
    for (int j = 0; j < got.cols(); ++j)
      EXPECT_FLOAT_EQ(got(i, j), expect(i, j));
}

TEST(Serialize, RegressorRoundTripPreservesPredictions) {
  const auto adj = chain(7);
  GcnConfig cfg = GcnConfig::regressor();
  cfg.hidden = {8, 4};
  cfg.seed = 17;
  GcnModel original(5, cfg);
  original.set_adjacency(&adj);
  util::Rng rng(2);
  const Matrix x = Matrix::randn(7, 5, rng, 1.0f);
  const Matrix expect = original.forward(x, false);
  ASSERT_EQ(expect.cols(), 1);  // continuous criticality scores

  std::stringstream buffer;
  save_gcn(original, buffer);
  GcnModel loaded = load_gcn(buffer);
  EXPECT_FALSE(loaded.config().log_softmax);
  loaded.set_adjacency(&adj);
  const Matrix got = loaded.forward(x, false);
  ASSERT_EQ(got.rows(), expect.rows());
  for (int i = 0; i < got.rows(); ++i)
    EXPECT_FLOAT_EQ(got(i, 0), expect(i, 0));
}

TEST(Serialize, CloneGcnMatchesOriginalForward) {
  const auto adj = chain(6);
  GcnConfig cfg = GcnConfig::classifier();
  cfg.hidden = {6};
  GcnModel original(4, cfg);
  original.set_adjacency(&adj);
  util::Rng rng(5);
  const Matrix x = Matrix::randn(6, 4, rng, 1.0f);
  const Matrix expect = original.forward(x, false);

  GcnModel copy = clone_gcn(original);
  copy.set_adjacency(&adj);
  const Matrix got = copy.forward(x, false);
  for (int i = 0; i < got.rows(); ++i)
    for (int j = 0; j < got.cols(); ++j)
      EXPECT_EQ(got(i, j), expect(i, j));
}

TEST(Serialize, RegressorConfigRoundTrips) {
  GcnConfig cfg = GcnConfig::regressor();
  cfg.hidden = {6};
  cfg.dropout_after = -1;  // one hidden conv: no Dropout position
  GcnModel original(3, cfg);
  std::stringstream buffer;
  save_gcn(original, buffer);
  const GcnModel loaded = load_gcn(buffer);
  EXPECT_EQ(loaded.config().output_dim, 1);
  EXPECT_FALSE(loaded.config().log_softmax);
  EXPECT_EQ(loaded.config().hidden, std::vector<int>{6});
  EXPECT_EQ(loaded.in_features(), 3);
}

TEST(Serialize, RejectsCorruptInput) {
  std::stringstream bad("not-a-model at all");
  EXPECT_THROW(load_gcn(bad), std::runtime_error);

  GcnModel model(3, GcnConfig::classifier());
  std::stringstream buffer;
  save_gcn(model, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);  // truncate weights
  std::stringstream truncated(text);
  EXPECT_THROW(load_gcn(truncated), std::runtime_error);
}

TEST(Serialize, RejectsHeaderFieldsPastTheirLimits) {
  GcnModel model(5, GcnConfig::classifier());
  std::stringstream buffer;
  save_gcn(model, buffer);
  const std::string text = buffer.str();
  const struct {
    const char* from;
    std::string line;
    const char* field;
  } cases[] = {
      {"in_features", "in_features -7", "in_features"},
      {"hidden ", "hidden 3 16 " + std::to_string(kMaxGcnWidth + 1) + " 64",
       "hidden[1]"},
      {"dropout ", "dropout nan", "dropout"},
      {"dropout_after", "dropout_after 7", "dropout_after"},
  };
  for (const auto& c : cases) {
    std::string edited = text;
    const std::size_t at = edited.find(c.from);
    ASSERT_NE(at, std::string::npos);
    edited.replace(at, edited.find('\n', at) - at, c.line);
    std::stringstream is(edited);
    try {
      load_gcn(is);
      ADD_FAILURE() << c.line << ": loaded";
    } catch (const GcnHeaderError& e) {
      EXPECT_EQ(e.field(), c.field) << c.line;
    }
  }
}

TEST(Serialize, StandardizerRoundTrips) {
  graphir::Standardizer s;
  s.mean = {1.5, -2.25, 0.0};
  s.stddev = {0.5, 3.0, 1.0};
  std::stringstream buffer;
  save_standardizer(s, buffer);
  const auto loaded = load_standardizer(buffer);
  EXPECT_EQ(loaded.mean, s.mean);
  EXPECT_EQ(loaded.stddev, s.stddev);
}

TEST(Serialize, SavedFileLoadsThroughStream) {
  GcnModel model(3, GcnConfig::classifier());
  const std::string path = "/tmp/fcrit_serialize_test.gcn";
  save_gcn_file(model, path);
  std::ifstream is(path);
  const GcnModel loaded = load_gcn(is);
  EXPECT_EQ(loaded.in_features(), 3);
  EXPECT_THROW(save_gcn_file(model, "/nonexistent/dir/x.gcn"),
               std::runtime_error);
}

}  // namespace
}  // namespace fcrit::ml
