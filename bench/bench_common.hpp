// Shared setup for the table/figure reproduction benches: every bench runs
// the same standard pipeline configuration so numbers agree across benches.
// The benches print human-readable tables; the committed performance
// record is perfbench's BENCH_<workload>.json files.
#pragma once

#include <cstdio>
#include <string>

#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"

namespace fcrit::bench {

inline core::PipelineConfig standard_config() {
  core::PipelineConfig cfg;
  cfg.probability_cycles = 512;
  cfg.campaign_cycles = 256;
  cfg.campaign_seed = 7;
  cfg.split_seed = 123;
  cfg.train.epochs = 400;
  cfg.train.patience = 80;
  cfg.regressor_train.epochs = 400;
  cfg.regressor_train.patience = 80;
  return cfg;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace fcrit::bench
