#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace servicebench {
namespace {

// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return samples[rank - 1];
}

}  // namespace

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

Tail TailPercentile(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  Tail tail;
  if (n == 0) return tail;
  // Nearest rank n - 10 leaves exactly ten samples beyond it.
  const size_t cap_rank = static_cast<size_t>(
      std::ceil(kMaxTailPercentile / 100.0 * static_cast<double>(n)));
  const size_t rank = n > 10 ? std::min(n - 10, cap_rank) : n;
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.value = samples[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void JsonObject::Add(const std::string& key, const std::string& json_value) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": " + json_value;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string MetricSet::ToJson() const {
  JsonObject out;
  for (const Metric& m : metrics_) {
    out.Add(m.name, "{\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
                        m.unit + "\"}");
  }
  return out.str();
}

}  // namespace servicebench
