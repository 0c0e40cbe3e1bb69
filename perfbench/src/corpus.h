// Seeded request corpora for the benchmark workloads.
//
// Every key is generated from the program's own tables — the Table I and
// extended SPLASH-2 cases and the served chip's fan/DVFS level counts —
// never from a hand-kept list, so the corpus
// tracks what the daemon can actually answer. Lines are emitted in
// canonical form (service::canonical_key), which makes "distinct line"
// and "distinct cache key" the same statement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Key {
  std::string line;  // canonical request line, no '\n'
  bool tec_on = false;
};

/// The knob space the served chip exposes.
struct Space {
  struct Case {
    std::string workload;
    int threads = 0;
  };
  std::vector<Case> cases;            // Table I + extended
  int fan_levels = 0;
  int dvfs_levels = 0;
};

/// Read the space from the program (builds one default chip engine).
Space program_space();

/// The full equilibrium key space, cases x fan x DVFS x TEC off/on: what
/// every workload draws from and what the reference covers.
std::vector<Key> equilibrium_keys(const Space& space);

/// Set-up lines that fill the daemon's memoized engine state (calibrated
/// workloads and base scenarios): one `table1` per case. No workload
/// measures a table1 key.
std::vector<std::string> warm_lines(const Space& space);

/// Deterministic 64-bit generator (splitmix64) with the few draws the
/// corpus needs; identical on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n);
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// One workload's inputs and fixed settings.
struct Plan {
  std::string workload;
  std::uint64_t seed = 0;
  bool routed = false;     // through tecrouter to two tecfand
  bool open_loop = false;  // scheduled sends at rate_rps
  int connections = 4;
  /// Closed loop, fixed time: connection c walks partitions[c] cyclically.
  std::vector<std::vector<Key>> partitions;
  /// Open-loop schedule: connection c sends entries c, c + connections,
  /// ... each exactly once.
  std::vector<Key> sequence;
  /// Keys computed into the result cache during set-up.
  std::vector<Key> prime;
  double rate_rps = 0.0;           // open loop only
  double latency_limit_us = 0.0;   // slo_share limit
  /// Traced runs put a `trace=` context on every Nth request.
  std::size_t trace_every = 1;
  int daemon_cache = 4096;         // tecfand --cache
  double design_hit_share = 0.0;   // expected daemon cache hit share
  double hit_share_tolerance = 0.0;
  std::string why;

  /// Every key the measured window can send (partitions or sequence).
  std::vector<Key> measured_keys() const;
};

/// Workload names in benchmark order.
const std::vector<std::string>& workload_names();

/// Build the plan for `workload` from `seed`; `seconds` sizes the
/// open-loop sequence. Throws on an unknown workload.
Plan make_plan(const Space& space, const std::string& workload,
               std::uint64_t seed, double seconds);

/// Corpus facts for the report.
struct CorpusReport {
  std::size_t keys = 0;           // measured-window keys, with repeats
  std::size_t distinct = 0;       // distinct canonical keys among them
  std::size_t equilibrium = 0;    // distinct keys by request kind
  std::size_t other = 0;
  double tec_on_share = 0.0;      // among distinct equilibrium keys
  double tec_on_request_share = 0.0;  // among equilibrium requests sent
};
CorpusReport describe(const Plan& plan);

/// Number of distinct canonical keys (service::canonical_key of the
/// parsed line) in `keys`; lines that do not parse count as distinct
/// garbage so a broken generator cannot look deduplicated.
std::size_t distinct_canonical(const std::vector<Key>& keys);

}  // namespace perfbench
