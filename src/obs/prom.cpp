#include "src/obs/prom.hpp"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace fcrit::obs {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return std::string(buf);
}

struct Family {
  const char* type = "counter";
  std::vector<std::string> samples;
};

}  // namespace

std::string prom_sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

std::string to_prometheus(const Registry& registry, const std::string& prefix) {
  // Group samples by exposed family name first: the exposition format
  // demands exactly one # TYPE line per family even when two instrument
  // names sanitize to the same family.
  std::map<std::string, Family> families;
  const RegistrySnapshot snap = registry.snapshot();

  for (const auto& [name, value] : snap.counters) {
    const std::string fam = prefix + prom_sanitize(name) + "_total";
    Family& f = families[fam];
    f.type = "counter";
    f.samples.push_back(fam + " " + std::to_string(value));
  }

  for (const auto& [name, g] : snap.gauges) {
    const std::string base = prefix + prom_sanitize(name);
    Family& f = families[base];
    f.type = "gauge";
    f.samples.push_back(base + " " + std::to_string(g.value));
    const std::string hw = base + "_high_water";
    Family& fh = families[hw];
    fh.type = "gauge";
    fh.samples.push_back(hw + " " + std::to_string(g.high_water));
  }

  for (const auto& [name, h] : snap.histograms) {
    const std::string base = prefix + prom_sanitize(name);
    Family& f = families[base];
    f.type = "histogram";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cum += h.counts[i];
      const std::string le =
          i < h.bounds.size() ? fmt_double(h.bounds[i]) : "+Inf";
      f.samples.push_back(base + "_bucket{le=\"" + le + "\"} " +
                          std::to_string(cum));
    }
    f.samples.push_back(base + "_sum " + fmt_double(h.sum));
    f.samples.push_back(base + "_count " + std::to_string(h.count));
  }

  std::string out;
  for (const auto& [fam, f] : families) {
    out += "# TYPE " + fam + " " + f.type + "\n";
    for (const std::string& s : f.samples) {
      out += s;
      out += "\n";
    }
  }
  return out;
}

}  // namespace fcrit::obs
