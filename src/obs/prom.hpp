// Prometheus text exposition (format 0.0.4) over RegistrySnapshot.
//
// Mapping, chosen so a stock Prometheus scrape of METRICS PROM just works:
//   Counter    -> `<prefix><name>_total` (counter)
//   Gauge      -> `<prefix><name>` plus `<prefix><name>_high_water` (gauge)
//   Histogram  -> cumulative `<prefix><name>_bucket{le="..."}` over the
//                 1-2-5 ladder, a `+Inf` bucket equal to _count, plus
//                 `_sum` and `_count`
// Instrument names are sanitized ('.', '-' and anything else outside
// [a-zA-Z0-9_] become '_'). Every family emits exactly one # TYPE line,
// as the format requires.
#pragma once

#include <string>

#include "src/obs/metrics.hpp"

namespace fcrit::obs {

/// `metric_name{label="v"}`-safe version of an instrument name.
std::string prom_sanitize(const std::string& name);

std::string to_prometheus(const Registry& registry,
                          const std::string& prefix = "fcrit_");

}  // namespace fcrit::obs
