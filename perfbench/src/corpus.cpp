#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "cluster/shard_map.h"
#include "perf/splash2.h"
#include "service/request.h"
#include "sim/chip_engine.h"

namespace perfbench {
namespace {

std::string canonical(const std::string& line) {
  const tecfan::service::ParsedRequest parsed =
      tecfan::service::parse_request(line);
  if (!parsed.ok)
    throw std::logic_error("corpus generated an invalid line: " + line +
                           " (" + parsed.error + ")");
  return tecfan::service::canonical_key(parsed.request);
}

std::string case_fields(const Space::Case& c) {
  return " workload=" + c.workload + " threads=" + std::to_string(c.threads);
}

/// Split `keys` into `parts` partitions with equal TEC-on counts (within
/// one), each shuffled: connections then see the same cost mix.
std::vector<std::vector<Key>> stratified_partitions(std::vector<Key> keys,
                                                    int parts, Rng& rng) {
  std::vector<Key> on, off;
  for (Key& k : keys) (k.tec_on ? on : off).push_back(std::move(k));
  rng.shuffle(on);
  rng.shuffle(off);
  std::vector<std::vector<Key>> out(static_cast<std::size_t>(parts));
  for (std::size_t i = 0; i < on.size(); ++i)
    out[i % out.size()].push_back(std::move(on[i]));
  for (std::size_t i = 0; i < off.size(); ++i)
    out[(i + on.size()) % out.size()].push_back(std::move(off[i]));
  for (auto& p : out) rng.shuffle(p);
  return out;
}

/// `n` keys drawn without replacement, half TEC-on, in seeded order.
std::vector<Key> stratified_sample(const std::vector<Key>& keys,
                                   std::size_t n, Rng& rng) {
  std::vector<Key> on, off;
  for (const Key& k : keys) (k.tec_on ? on : off).push_back(k);
  rng.shuffle(on);
  rng.shuffle(off);
  std::vector<Key> out;
  for (std::size_t i = 0; i < n / 2; ++i) {
    out.push_back(on[i]);
    out.push_back(off[i]);
  }
  return out;
}

// Workload sizing. The hit working set fits the daemon's default
// 4096-entry cache; the miss daemon's cache is far below the 1056-key
// cycle; mixed_routed backends keep their hot halves resident while the
// distinct misses evict one another.
constexpr std::size_t kHitWorkingSet = 256;
constexpr int kMissCache = 64;
constexpr int kMissConnections = 2;
constexpr std::size_t kMixedHotSet = 128;
constexpr int kMixedCache = 256;
constexpr double kMixedRate = 1000.0;  // requests per second, both links
constexpr int kMixedMissEvery = 10;    // every 10th request is a miss

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
}

Space program_space() {
  Space space;
  for (const auto* table :
       {&tecfan::perf::table1_cases(), &tecfan::perf::extended_cases()})
    for (const auto& c : *table) space.cases.push_back({c.benchmark, c.threads});
  const tecfan::sim::ChipEnginePtr engine =
      tecfan::sim::make_default_chip_engine();
  space.fan_levels = engine->models().fan.level_count();
  space.dvfs_levels = engine->models().dvfs.level_count();
  return space;
}

std::vector<Key> equilibrium_keys(const Space& space) {
  std::vector<Key> out;
  for (const auto& c : space.cases)
    for (int fan = 0; fan < space.fan_levels; ++fan)
      for (int dvfs = 0; dvfs < space.dvfs_levels; ++dvfs)
        for (const bool tec : {false, true})
          out.push_back({canonical("equilibrium" + case_fields(c) +
                                   " fan=" + std::to_string(fan) +
                                   " dvfs=" + std::to_string(dvfs) +
                                   (tec ? " tec=on" : "")),
                         tec});
  return out;
}

std::vector<std::string> warm_lines(const Space& space) {
  std::vector<std::string> out;
  for (const auto& c : space.cases)
    out.push_back(canonical("table1" + case_fields(c)));
  return out;
}

std::vector<Key> Plan::measured_keys() const {
  std::vector<Key> out = sequence;
  for (const auto& p : partitions) out.insert(out.end(), p.begin(), p.end());
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hit", "miss",
                                                 "mixed_routed"};
  return names;
}

Plan make_plan(const Space& space, const std::string& workload,
               std::uint64_t seed, double seconds) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  // Each workload draws from its own stream, so one seed gives unrelated
  // orders on different workloads.
  Rng rng(seed * 0x100000001B3ULL +
          static_cast<std::uint64_t>(
              std::find(workload_names().begin(), workload_names().end(),
                        workload) -
              workload_names().begin()));
  if (workload == "hit") {
    plan.prime = stratified_sample(equilibrium_keys(space), kHitWorkingSet,
                                   rng);
    plan.partitions = stratified_partitions(plan.prime, plan.connections, rng);
    plan.latency_limit_us = 100.0;
    // The traced reply path collects spans (tens of microseconds), so
    // tracing every hit would measure mostly that.
    plan.trace_every = 16;
    plan.design_hit_share = 1.0;
    plan.hit_share_tolerance = 0.001;
    plan.why = "primed working set inside the result cache: the service "
               "front end does all the work, compute layers none";
  } else if (workload == "miss") {
    // One connection per daemon worker (the daemon gets two of the
    // 4-core VM's CPUs, one worker each): a request never waits behind
    // another's compute, so its latency is its own compute time.
    plan.connections = kMissConnections;
    plan.partitions =
        stratified_partitions(equilibrium_keys(space), plan.connections, rng);
    // Each cycle asks every key once and every TEC-off key a second time,
    // half a partition later (far beyond the cache's reach). A two-thirds
    // TEC-off request mix keeps the median inside one cost mode: at an
    // even split it would sit in the 10x gap between TEC-off and TEC-on.
    for (auto& part : plan.partitions) {
      std::vector<Key> again;
      for (const Key& k : part)
        if (!k.tec_on) again.push_back(k);
      part.insert(part.end(), again.begin(), again.end());
    }
    plan.daemon_cache = kMissCache;
    plan.latency_limit_us = 10000.0;
    plan.design_hit_share = 0.0;
    plan.hit_share_tolerance = 0.01;
    plan.why = "every equilibrium key once per cycle (TEC-off twice) past a "
               "cache far below the cycle: sim/thermal/linalg do the work";
  } else if (workload == "mixed_routed") {
    plan.routed = true;
    plan.open_loop = true;
    plan.connections = 2;
    plan.rate_rps = kMixedRate;
    plan.daemon_cache = kMixedCache;
    // Balance the fleet by construction: split the key space by the
    // router's ring owner, give each backend half of the hot set (half
    // TEC-on) and alternate the misses between backends (each backend's
    // own misses alternating TEC-on/off), so every seed loads the two
    // backends alike.
    const tecfan::cluster::ShardMap ring(2);
    std::vector<Key> owned[2];
    for (const Key& k : equilibrium_keys(space))
      owned[ring.owner(k.line)].push_back(k);
    std::vector<Key> cold[2];
    for (int b = 0; b < 2; ++b) {
      const std::vector<Key> hot =
          stratified_sample(owned[b], kMixedHotSet / 2, rng);
      plan.prime.insert(plan.prime.end(), hot.begin(), hot.end());
      std::set<std::string> taken;
      for (const Key& k : hot) taken.insert(k.line);
      std::vector<Key> rest;
      std::size_t on = 0;
      for (const Key& k : owned[b])
        if (!taken.count(k.line)) {
          rest.push_back(k);
          on += k.tec_on;
        }
      cold[b] = stratified_sample(rest, 2 * std::min(on, rest.size() - on), rng);
    }
    rng.shuffle(plan.prime);
    const auto total = static_cast<std::size_t>(
        std::max(1.0, std::round(kMixedRate * seconds)));
    std::size_t misses = 0;
    for (std::size_t i = 0; i < total; ++i) {
      if (i % kMixedMissEvery == kMixedMissEvery - 1) {
        const std::vector<Key>& c = cold[misses % 2];
        plan.sequence.push_back(c[(misses / 2) % c.size()]);
        ++misses;
      } else {
        plan.sequence.push_back(plan.prime[rng.below(plan.prime.size())]);
      }
    }
    plan.latency_limit_us = 10000.0;
    plan.design_hit_share = 1.0 - 1.0 / kMixedMissEvery;
    plan.hit_share_tolerance = 0.02;
    plan.why = "open loop through tecrouter to two tecfand: hot-set hits "
               "queue behind distinct misses on each backend pipe";
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return plan;
}

std::size_t distinct_canonical(const std::vector<Key>& keys) {
  std::set<std::string> seen;
  std::size_t garbage = 0;
  for (const Key& k : keys) {
    const tecfan::service::ParsedRequest parsed =
        tecfan::service::parse_request(k.line);
    if (!parsed.ok || !parsed.request.is_compute()) {
      ++garbage;
      continue;
    }
    seen.insert(tecfan::service::canonical_key(parsed.request));
  }
  return seen.size() + garbage;
}

CorpusReport describe(const Plan& plan) {
  // Kinds and TEC settings are read back from the parsed lines, not from
  // the generator's own bookkeeping.
  CorpusReport r;
  const std::vector<Key> keys = plan.measured_keys();
  r.keys = keys.size();
  r.distinct = distinct_canonical(keys);
  std::set<std::string> seen;
  std::size_t tec_on = 0, eq_requests = 0, on_requests = 0;
  for (const Key& k : keys) {
    const tecfan::service::Request req =
        tecfan::service::parse_request(k.line).request;
    const bool first = seen.insert(k.line).second;
    if (req.kind != tecfan::service::RequestKind::kEquilibrium) {
      r.other += first;
      continue;
    }
    ++eq_requests;
    on_requests += req.tec_on;
    if (first) {
      ++r.equilibrium;
      tec_on += req.tec_on;
    }
  }
  const auto share = [](std::size_t n, std::size_t d) {
    return d ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
  };
  r.tec_on_share = share(tec_on, r.equilibrium);
  r.tec_on_request_share = share(on_requests, eq_requests);
  return r;
}

}  // namespace perfbench
