// Serial-vs-parallel wall time for the ML math kernels at the shapes GCN
// training on ee_zonal really runs, plus a full training epoch.
//
//   bench_kernels [--jobs N]
//
// The operands are ee_zonal-sized: N = the design's node count (4 882) and
// its real normalized adjacency. For each GCN layer in -> out (5->16,
// 16->32, 32->64, then 64->2 for the classifier and 64->1 for the
// regressor) it times one call of each kernel the layer runs: forward X W
// (`matmul`) and Â Z (`spmm`), backward Âᵀ G (`spmm_t`), Xᵀ G
// (`matmul_tn`) and G Wᵀ (`matmul_nt`). These are the calls perfbench's
// `ml.kernel.<kernel>_*` metrics count; a training epoch makes two forward
// calls (training and evaluation) and one backward call per layer.
// Hidden-layer inputs are half exact zeros, roughly the post-ReLU density
// the zero-skipping kernels see in training.
//
// Without --jobs the sweep is {1, 2, 4, hardware} (deduplicated, capped at
// the hardware lane count); with --jobs it is {1, N}. Each timing lands in
// BENCH_kernels.json as "<kernel> <in>-><out>@<threads>t". Correctness is
// NOT re-checked here — that is tests/kernel_determinism_test.cpp's job
// (results are bitwise-identical by construction, so the times below
// compare equal work).
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/designs/designs.hpp"
#include "src/graphir/graph.hpp"
#include "src/ml/matrix.hpp"
#include "src/ml/sparse.hpp"
#include "src/ml/trainer.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace fcrit;

/// Gaussian entries, a `zero_fraction` share of them exact zeros.
ml::Matrix random_matrix(int rows, int cols, util::Rng& rng,
                         float zero_fraction = 0.0f) {
  ml::Matrix m = ml::Matrix::randn(rows, cols, rng, 1.0f);
  for (int i = 0; i < rows; ++i)
    for (float& v : m.row(i))
      if (rng.next_float() < zero_fraction) v = 0.0f;
  return m;
}

double time_repeated(int repeats, const std::function<void()>& fn) {
  fn();  // warm-up (first call also resolves metric instruments)
  util::Timer timer;
  for (int i = 0; i < repeats; ++i) fn();
  return timer.millis() / repeats;
}

struct LayerShape {
  int in, out;
};
// The conv layers of GcnConfig::classifier() over the 5 base features; the
// regressor shares them up to its 64 -> 1 output.
const LayerShape kLayers[] = {{5, 16}, {16, 32}, {32, 64}, {64, 2}, {64, 1}};

}  // namespace

int main(int argc, char** argv) {
  int requested = -1;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--jobs") == 0)
      requested = util::parse_thread_count(argv[i + 1]);

  std::vector<int> sweep;
  if (requested >= 0) {
    sweep = {1, requested == 0 ? util::hardware_threads() : requested};
  } else {
    sweep = {1, 2, 4, util::hardware_threads()};
  }
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

  bench::print_header("kernel scaling at ee_zonal GCN shapes");
  bench::Recorder recorder("kernels");

  const designs::Design design = designs::build_ee_zonal();
  const ml::SparseMatrix adj =
      graphir::build_graph(design.netlist).normalized_adjacency;
  const int n = adj.rows();
  std::printf("N = %d nodes, nnz = %zu\n", n, adj.nnz());

  std::printf("%-20s", "kernel");
  for (const int t : sweep) std::printf("  %7dt", t);
  std::printf("\n");

  struct Row {
    std::string label;
    std::vector<double> ms;
  };
  std::vector<Row> rows;
  const auto bench_kernel = [&](const std::string& label, int repeats,
                                const std::function<void()>& fn) {
    Row row{label, {}};
    for (const int t : sweep) {
      util::set_num_threads(t);
      const double ms = time_repeated(repeats, fn);
      row.ms.push_back(ms);
      recorder.phase(label + "@" + std::to_string(t) + "t", ms);
    }
    rows.push_back(std::move(row));
  };

  util::Rng rng(42);
  for (const LayerShape& l : kLayers) {
    const std::string shape =
        std::to_string(l.in) + "->" + std::to_string(l.out);
    // Layer 1 (in == 5) reads the dense standardized features; deeper
    // layers read ReLU outputs.
    const ml::Matrix x = random_matrix(n, l.in, rng, l.in == 5 ? 0.0f : 0.5f);
    const ml::Matrix w = ml::Matrix::xavier(l.in, l.out, rng);
    const ml::Matrix z = random_matrix(n, l.out, rng);
    const ml::Matrix g = random_matrix(n, l.out, rng);
    bench_kernel("matmul " + shape, 20, [&] { (void)ml::matmul(x, w); });
    bench_kernel("spmm " + shape, 20, [&] { (void)adj.spmm(z); });
    bench_kernel("spmm_t " + shape, 20, [&] { (void)adj.spmm_t(g); });
    bench_kernel("matmul_tn " + shape, 20, [&] { (void)ml::matmul_tn(x, g); });
    bench_kernel("matmul_nt " + shape, 20, [&] { (void)ml::matmul_nt(g, w); });
  }

  // Small end-to-end training problem for the epoch timing.
  const int train_n = 2048;
  std::vector<ml::Coo> entries;
  for (int r = 0; r < train_n; ++r) {
    entries.push_back({r, r, 0.5f});
    for (int d = 0; d < 4; ++d)
      entries.push_back(
          {r, static_cast<int>(rng.next_below(train_n)), 0.1f});
  }
  const ml::SparseMatrix train_adj =
      ml::SparseMatrix::from_coo(train_n, train_n, std::move(entries));
  const ml::Matrix feats = random_matrix(train_n, 16, rng);
  std::vector<int> labels(static_cast<std::size_t>(train_n));
  for (int i = 0; i < train_n; ++i)
    labels[static_cast<std::size_t>(i)] = (rng.next() & 1) != 0;
  std::vector<int> train_idx, val_idx;
  for (int i = 0; i < train_n; ++i)
    ((i % 5 == 0) ? val_idx : train_idx).push_back(i);
  bench_kernel("epoch (train)", 1, [&] {
    ml::GcnConfig mc = ml::GcnConfig::classifier();
    mc.hidden = {16, 32};
    ml::GcnModel model(feats.cols(), mc);
    ml::TrainConfig tc;
    tc.epochs = 3;
    tc.patience = 0;
    ml::train_classifier(model, train_adj, feats, labels, train_idx, val_idx,
                         tc);
  });
  util::set_num_threads(0);

  for (const auto& row : rows) {
    std::printf("%-20s", row.label.c_str());
    for (const double ms : row.ms) std::printf("  %6.3fms", ms);
    if (row.ms.size() >= 2 && row.ms.back() > 0.0)
      std::printf("  (x%.2f)", row.ms.front() / row.ms.back());
    std::printf("\n");
  }
  recorder.write();
  return 0;
}
