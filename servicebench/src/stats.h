// Sample summaries and the result-line writer of the benchmark.
#ifndef SERVICEBENCH_STATS_H_
#define SERVICEBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace servicebench {

// Steady-clock nanoseconds, the time base of every latency and span.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Nearest-rank median; 0 for an empty sample.
double Median(std::vector<double> samples);

// The highest percentile with at least ten samples beyond it — nearest
// rank n - 10, the 11th-largest sample (the largest when there are at most
// ten) — capped at p90. Above p90 the figure stops repeating: past p99 the
// few samples of one run mostly time the OS scheduler, and on cold_mixed
// the 11th-largest sample moves between the two slowest families as the
// host's speed changes how many rounds fit in the window, while p90 stays
// inside the k4_crpq family (the 85th to 95th percentile of every round).
inline constexpr double kMaxTailPercentile = 90;
struct Tail {
  double percentile = 100;
  double value = 0;
  size_t beyond = 0;  // Samples ranked above the percentile.
};
Tail TailPercentile(std::vector<double> samples);

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// Ordered {"name": {"value": v, "unit": u}} object, printed with every
// digit the double holds.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// A JSON number with every digit the double holds (null if not finite).
std::string JsonNumber(double value);

// Ordered JSON object built from pre-rendered member values.
class JsonObject {
 public:
  void Add(const std::string& key, const std::string& json_value);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace servicebench

#endif  // SERVICEBENCH_STATS_H_
