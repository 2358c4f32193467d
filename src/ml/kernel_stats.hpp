// Parallel grain shared by the dense (matrix.cpp), sparse (sparse.cpp) and
// layer (layers.cpp) kernels. The five matmul/spmm kernels also time every
// call with one obs::Span into a process-registry histogram
// (ml.kernel.<name>_ms, resolved once per kernel via a local static), which
// is cheap enough to stay on permanently.
#pragma once

#include <algorithm>
#include <cstdint>

namespace fcrit::ml::detail {

/// Minimum per-chunk flop count before a kernel fans out: below this the
/// dispatch overhead beats the win, so the range collapses to one inline
/// chunk (util::parallel_for's min_chunk).
inline constexpr std::int64_t kGrainFlops = 16384;

/// min_chunk in rows for a kernel whose rows cost `flops_per_row` each.
inline std::int64_t row_grain(std::int64_t flops_per_row) {
  return std::max<std::int64_t>(
      1, kGrainFlops / std::max<std::int64_t>(1, flops_per_row));
}

}  // namespace fcrit::ml::detail
