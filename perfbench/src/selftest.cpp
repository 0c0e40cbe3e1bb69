// The benchmark's own tests: the corpus is deterministic per seed and its
// keys are what the report says they are, verification rejects a
// corrupted reply, and the committed golden replies agree with this
// build. Run with `python3 perfbench/run.py --selftest` (or ctest in the
// benchmark's build tree); the one argument is the golden file.
#include <algorithm>
#include <cmath>
#include <map>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "cluster/shard_map.h"
#include "corpus.h"
#include "service/request.h"
#include "stats.h"
#include "util/metrics.h"
#include "verify.h"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<std::string> lines(const std::vector<Key>& keys) {
  std::vector<std::string> out;
  for (const Key& k : keys) out.push_back(k.line);
  return out;
}

void corpus_tests(const Space& space) {
  check(space.cases.size() == 11 && space.fan_levels == 8 &&
            space.dvfs_levels == 6,
        "program space: 11 cases, 8 fan, 6 DVFS levels");
  const std::size_t eq = space.cases.size() * space.fan_levels *
                         space.dvfs_levels * 2;
  check(equilibrium_keys(space).size() == eq &&
            distinct_canonical(equilibrium_keys(space)) == eq,
        "equilibrium key space has cases x fan x DVFS x TEC distinct keys");

  for (const std::string& w : workload_names()) {
    const Plan a = make_plan(space, w, 7, 10);
    const Plan b = make_plan(space, w, 7, 10);
    const Plan c = make_plan(space, w, 8, 10);
    check(lines(a.measured_keys()) == lines(b.measured_keys()) &&
              lines(a.prime) == lines(b.prime),
          w + ": same seed, same inputs");
    check(lines(a.measured_keys()) != lines(c.measured_keys()),
          w + ": another seed, other inputs");
    const CorpusReport r = describe(a);
    const std::vector<std::string> walked = lines(a.measured_keys());
    const std::set<std::string> u(walked.begin(), walked.end());
    check(r.distinct == u.size(), w + ": reported distinct keys are distinct");
    const std::vector<std::string> uni = lines(equilibrium_keys(space));
    const std::set<std::string> in_universe(uni.begin(), uni.end());
    bool covered = true;
    for (const Key& k : a.measured_keys()) covered &= in_universe.count(k.line) > 0;
    for (const Key& k : a.prime) covered &= in_universe.count(k.line) > 0;
    check(covered, w + ": every key has a reference in the universe");
  }
  const Plan miss = make_plan(space, "miss", 3, 10);
  std::size_t walked = 0;
  for (const auto& p : miss.partitions) walked += p.size();
  check(walked == eq + eq / 2 && describe(miss).distinct == eq &&
            std::abs(describe(miss).tec_on_share - 0.5) < 1e-12 &&
            std::abs(describe(miss).tec_on_request_share - 1.0 / 3) < 1e-12,
        "miss: a cycle asks every key once and TEC-off keys twice");
  for (const auto& part : miss.partitions) {
    // A repeated key comes back only after many other requests, so the
    // 64-entry daemon cache cannot answer it.
    std::map<std::string, std::size_t> last;
    std::size_t closest = part.size();
    for (std::size_t i = 0; i < part.size(); ++i) {
      const auto it = last.find(part[i].line);
      if (it != last.end()) closest = std::min(closest, i - it->second);
      last[part[i].line] = i;
    }
    check(closest >= 100, "miss: repeats are at least 100 requests apart");
  }
  const Plan mixed = make_plan(space, "mixed_routed", 3, 10);
  const tecfan::cluster::ShardMap ring(2);
  std::size_t owned0 = 0;
  for (const Key& k : mixed.prime) owned0 += ring.owner(k.line) == 0;
  check(owned0 * 2 == mixed.prime.size(),
        "mixed_routed: the hot set is split evenly over the ring");
  const Plan hit = make_plan(space, "hit", 3, 10);
  check(describe(hit).distinct == hit.prime.size(),
        "hit: the walked working set is exactly the primed set");

  // Aliases of one key count once: the distinctness proof goes through
  // canonical_key, not the raw text.
  const std::vector<Key> aliased = {
      {"equilibrium workload=lu threads=16 fan=2 dvfs=1"},
      {"equilibrium dvfs=1 fan=2 threads=16 workload=LU"}};
  check(distinct_canonical(aliased) == 1, "aliased lines count as one key");
}

void verify_tests() {
  const std::string ref = "ok peak_t_k=350.1 peak_t_c=76.95 fan_w=2.5";
  check(classify(ref, ref) == Outcome::kComputed, "exact reply verifies");
  check(classify("ok cached=1 peak_t_k=350.1 peak_t_c=76.95 fan_w=2.5", ref) ==
            Outcome::kHit,
        "cached reply verifies as a hit");
  check(classify(ref + " trace=1a-0 spans=e2e:0:0:16", ref) ==
            Outcome::kComputed,
        "trace fields are ignored");
  check(classify("ok peak_t_k=350.2 peak_t_c=76.95 fan_w=2.5", ref) ==
            Outcome::kMismatch,
        "one corrupted digit is a mismatch");
  check(classify("ok cached=1 peak_t_k=350.1 peak_t_c=76.95", ref) ==
            Outcome::kMismatch,
        "a truncated cached reply is a mismatch");
  check(classify("error msg=\"no case\"", ref) == Outcome::kError,
        "error replies are errors");
  check(classify("busy", ref) == Outcome::kBusy, "busy replies are busy");

  // The reference comes from a private in-process Server.
  const std::vector<Key> keys = {
      {"equilibrium dvfs=5 fan=7 tec=off threads=4 workload=water"},
      {"equilibrium dvfs=5 fan=7 tec=on threads=4 workload=water", true}};
  const Reference r = compute_reference(keys, 2);
  const std::string& good = r.at(keys[1].line);
  std::string bad = good;
  bad[bad.size() - 1] = bad.back() == '1' ? '2' : '1';
  check(r.size() == 2 && classify(good, good) == Outcome::kComputed &&
            classify(bad, good) == Outcome::kMismatch,
        "in-process reference verifies itself and rejects a corrupted copy");
}

void golden_tests(const Space& space, const char* path) {
  const std::string ref = "ok peak_t_k=350.1234567 peak_t_c=76.97345671 fan_w=2.5";
  check(replies_close(ref, "ok peak_t_k=350.1234568 peak_t_c=76.97345672 fan_w=2.5",
                      kGoldenRelTolerance),
        "golden: a last-digit difference is within tolerance");
  check(!replies_close(ref, "ok peak_t_k=350.1634567 peak_t_c=76.97345671 fan_w=2.5",
                       kGoldenRelTolerance),
        "golden: a 0.04 K difference is not");
  check(!replies_close(ref, "ok peak_t_k=350.1234567 peak_t_c=76.97345671",
                       kGoldenRelTolerance) &&
            !replies_close(ref, "error msg=\"x\"", kGoldenRelTolerance),
        "golden: a missing field or an error reply is not");

  Reference golden;
  if (!path || !load_reference(path, &golden)) {
    check(false, std::string("golden: cannot read '") + (path ? path : "") + "'");
    return;
  }
  std::set<std::string> want;
  for (const Key& k : equilibrium_keys(space)) want.insert(k.line);
  bool same_keys = golden.size() == want.size();
  for (const auto& [key, reply] : golden) same_keys &= want.count(key) > 0;
  check(same_keys, "golden: covers exactly the equilibrium key space");

  // This build's answers for two keys (one TEC-on) agree with the golden
  // ones; a shifted answer is caught.
  const std::vector<Key> keys = {
      {"equilibrium dvfs=0 fan=0 tec=off threads=16 workload=cholesky"},
      {"equilibrium dvfs=0 fan=0 tec=on threads=16 workload=cholesky", true}};
  const Reference mine = compute_reference(keys, 2);
  Reference sub;
  for (const Key& k : keys) sub.emplace(k.line, golden.at(k.line));
  std::string first;
  check(keys.size() == 2 && golden_mismatches(mine, sub, &first) == 0,
        "golden: this build's in-process replies match the committed ones");
  Reference shifted = mine;
  std::string& line = shifted.begin()->second;
  line[line.find("peak_t_k=") + 9] = '9';
  check(golden_mismatches(shifted, sub, &first) == 1 &&
            first == shifted.begin()->first,
        "golden: a reference with one shifted answer is caught");
  shifted.erase(shifted.begin());
  check(golden_mismatches(shifted, sub, &first) == 1,
        "golden: a reference missing a key is caught");
}

void stats_tests() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Quantile q = tail_quantile(v);
  check(q.pct == 99 && q.value == 990 && q.beyond == 10 && q.samples == 1000,
        "tail is p99 with 10 beyond at 1000 samples");
  v.resize(500);
  q = tail_quantile(v);
  check(q.pct == 90 && q.beyond == 50, "tail falls back to p90 at 500");

  using Idx = std::vector<std::size_t>;
  check(headline_epochs({0.0, 0.002, 0.01, 0.0}) == Idx{0, 1, 2, 3},
        "headline: every epoch within the clean steal share counts");
  check(headline_epochs({0.0, 0.2, 0.005, 0.15, 0.0}) == Idx{0, 2, 4},
        "headline: stolen epochs are left out");
  check(headline_epochs({0.2, 0.05, 0.3, 0.02, 0.1}) == Idx{1, 3, 4},
        "headline: when most are stolen, the least stolen half counts");

  tecfan::MetricsRegistry reg;
  auto& h = reg.histogram("compute");
  for (int i = 1; i <= 400; ++i)
    h.record(std::chrono::microseconds(i * 10));
  const auto fields = reply_fields(tecfan::service::serialize_response(
      tecfan::service::metrics_to_response(reg)));
  const auto snap = metrics_histogram(fields, "compute");
  check(snap.count == 400 &&
            std::abs(snap.percentile(50) - h.snapshot().percentile(50)) < 1e-6,
        "histogram rebuilt from the metrics verb matches the registry");
  const auto d = histogram_delta(snap, metrics_histogram({}, "compute"));
  check(d.count == 400, "histogram delta against an empty dump");
}

}  // namespace

int main(int argc, char** argv) {
  const Space space = program_space();
  corpus_tests(space);
  verify_tests();
  golden_tests(space, argc > 1 ? argv[1] : nullptr);
  stats_tests();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
