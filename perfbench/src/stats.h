// Percentiles, daemon stats/metrics deltas and a minimal JSON writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace perfbench {

/// A percentile of a sample with its provenance: which percentile, how
/// many samples, and how many lie beyond it.
struct Quantile {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile of `values` (sorted in place).
Quantile quantile(std::vector<double>& values, double pct);

/// The highest of p99, p90, p50 with at least ten samples beyond it
/// (p99 once a sample has 1000 values); {0,...} when empty.
Quantile tail_quantile(std::vector<double>& values);

/// An epoch in which the hypervisor ran something else on the machine's
/// CPUs for more than this share of the time is disturbed: such stretches
/// (10-20% steal for a few seconds) multiplied hit's p99 by two to four.
constexpr double kCleanSteal = 0.01;

/// The epochs (by index, ascending) that headline numbers are taken over,
/// given each epoch's host steal share: those with at most kCleanSteal,
/// or, when fewer than half are that clean, the least stolen half.
std::vector<std::size_t> headline_epochs(const std::vector<double>& steal);

/// One `ok key=value ...` reply as a field map (quoted values unquoted).
std::map<std::string, std::string> reply_fields(const std::string& reply);

double field_number(const std::map<std::string, std::string>& fields,
                    const std::string& key);

/// Histogram `name` of a `metrics` verb reply, rebuilt from its bucket
/// list; delta(after, before) is what happened between the two dumps.
tecfan::LatencyHistogram::Snapshot metrics_histogram(
    const std::map<std::string, std::string>& fields, const std::string& name);
tecfan::LatencyHistogram::Snapshot histogram_delta(
    const tecfan::LatencyHistogram::Snapshot& after,
    const tecfan::LatencyHistogram::Snapshot& before);

/// Flat JSON object writer; nested objects are added as raw text.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& integer(const std::string& key, std::uint64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& boolean(const std::string& key, bool value);
  Json& raw(const std::string& key, const std::string& json);
  Json& quantile(const std::string& key, const Quantile& q);
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_escape(const std::string& s);

}  // namespace perfbench
