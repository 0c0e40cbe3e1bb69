#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>

#include "cluster/shard_map.h"
#include "core/planning.h"
#include "core/policy_factory.h"
#include "service/request.h"
#include "service/result_cache.h"
#include "sim/chip_engine.h"
#include "sim/chip_simulator.h"
#include "sim/experiment.h"
#include "stats.h"
#include "thermal/solvers.h"
#include "util/units.h"

namespace perfbench {
namespace {

namespace core = tecfan::core;
namespace service = tecfan::service;
namespace sim = tecfan::sim;
namespace thermal = tecfan::thermal;
using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root
  std::uint64_t request = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

class SpanLog {
 public:
  std::uint64_t next_id() { return next_.fetch_add(1); }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  void add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return s.name == name; }));
  }

 private:
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name, std::uint64_t parent,
         std::uint64_t request)
      : log_(log),
        span_{std::move(name), log.next_id(), parent, request, log.now_us(),
              0.0} {}
  ~Scoped() {
    span_.end_us = log_.now_us();
    log_.add(std::move(span_));
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

/// Forwards every call to the policy's model, counting model evaluations
/// (one per predict, one per batch candidate).
class CountingModel final : public core::PlanningModel {
 public:
  explicit CountingModel(core::PlanningModel& inner) : inner_(inner) {}
  int core_count() const override { return inner_.core_count(); }
  std::size_t tec_count() const override { return inner_.tec_count(); }
  int dvfs_level_count() const override { return inner_.dvfs_level_count(); }
  int fan_level_count() const override { return inner_.fan_level_count(); }
  std::size_t spot_count() const override { return inner_.spot_count(); }
  int core_of_spot(std::size_t spot) const override {
    return inner_.core_of_spot(spot);
  }
  const std::vector<std::size_t>& tecs_over(std::size_t spot) const override {
    return inner_.tecs_over(spot);
  }
  const tecfan::linalg::Vector& sensed_temps() const override {
    return inner_.sensed_temps();
  }
  double threshold_k() const override { return inner_.threshold_k(); }
  core::Prediction predict(const core::KnobState& knobs) override {
    ++calls;
    return inner_.predict(knobs);
  }
  core::Prediction predict_steady(const core::KnobState& knobs) override {
    ++calls;
    return inner_.predict_steady(knobs);
  }
  void evaluate_batch(const core::ActionSet::Slice& slice,
                      const core::KnobState& base,
                      std::vector<core::Prediction>& out) override {
    calls += slice.size();
    inner_.evaluate_batch(slice, base, out);
  }

  std::uint64_t calls = 0;

 private:
  core::PlanningModel& inner_;
};

struct DecideTally {
  std::atomic<std::uint64_t> decides{0};
  std::atomic<std::uint64_t> model_calls{0};
};

/// Forwards to a named policy; each decide() is a child span of the run.
class TracedPolicy final : public core::Policy {
 public:
  TracedPolicy(core::PolicyPtr inner, SpanLog& log, std::string span,
               std::uint64_t parent, std::uint64_t request,
               DecideTally& tally)
      : inner_(std::move(inner)),
        log_(log),
        span_(std::move(span)),
        parent_(parent),
        request_(request),
        tally_(tally) {}
  std::string_view name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  core::KnobState decide(core::PlanningModel& model,
                         const core::KnobState& current) override {
    CountingModel counting(model);
    core::KnobState next;
    {
      Scoped s(log_, span_, parent_, request_);
      next = inner_->decide(counting, current);
    }
    ++tally_.decides;
    tally_.model_calls += counting.calls;
    return next;
  }

 private:
  core::PolicyPtr inner_;
  SpanLog& log_;
  std::string span_;
  std::uint64_t parent_;
  std::uint64_t request_;
  DecideTally& tally_;
};

/// Policy names as metric-name segments ('+' is not allowed there).
std::string policy_segment(std::string name) {
  std::replace(name.begin(), name.end(), '+', '_');
  return name;
}

class Replayer {
 public:
  Replayer(const Plan& plan, const Reference& ref)
      : ref_(ref),
        engine_(sim::make_default_chip_engine()),
        shards_(2) {
    for (int i = 0; i < (plan.routed ? 2 : 1); ++i)
      caches_.push_back(std::make_unique<service::ResultCache>(
          static_cast<std::size_t>(plan.daemon_cache)));
    for (const std::string& p : core::known_policy_names()) tallies_[p];
  }

  /// One request through the serving path's public calls.
  void request(const std::string& line) {
    const std::uint64_t rid = ++requests_;
    std::optional<std::string> hit;
    std::string key;
    service::Request req;
    {
      Scoped root(log_, "request", 0, rid);
      const std::uint64_t p = root.id();
      {
        Scoped s(log_, "service.parse", p, rid);
        req = service::parse_request(line).request;
      }
      {
        Scoped s(log_, "service.canonical_key", p, rid);
        key = service::canonical_key(req);
      }
      std::size_t owner = 0;
      {
        Scoped s(log_, "cluster.shard_owner", p, rid);
        owner = shards_.owner(key);
      }
      service::ResultCache& cache = *caches_[owner % caches_.size()];
      {
        Scoped s(log_, "service.cache_get", p, rid);
        hit = cache.get(key);
      }
      if (hit) {
        Scoped s(log_, "service.hit_reply", p, rid);
        service::Response r = service::parse_response(*hit);
        r.cached = true;
        reply_bytes_ += service::serialize_response(r).size();
      } else {
        std::string value;
        {
          Scoped s(log_, "sim.compute", p, rid);
          value = compute(req, line, s.id(), rid);
        }
        Scoped s(log_, "service.cache_put", p, rid);
        cache.put(key, value);
      }
    }
    // Beside the request tree: the hit-path transform of this request's
    // stored reply (so every workload reports it), the router's route
    // decision, and direct solver calls on the request's cooling states.
    if (!hit) {
      const auto it = ref_.find(line);
      Scoped s(log_, "service.hit_reply", 0, rid);
      service::Response r =
          service::parse_response(it == ref_.end() ? "ok" : it->second);
      r.cached = true;
      reply_bytes_ += service::serialize_response(r).size();
    }
    {
      Scoped s(log_, "cluster.route", 0, rid);
      const service::ParsedRequest parsed = service::parse_request(line);
      reply_bytes_ +=
          shards_.replica_chain(service::canonical_key(parsed.request), 2)
              .size();
    }
    solver_probe(req, rid);
  }

  void calibrate() {
    // No benchmark workload sends run or sweep requests, so the control
    // layer (core.*, sim.run/sweep/base_scenario, thermal.transient_step)
    // is measured on a fixed small set: every named policy once and one
    // fan sweep on the cheapest case at the slowest fan.
    const std::string wl = " workload=water threads=4";
    for (const std::string& p : core::known_policy_names())
      calibrated_.push_back("run policy=" + p + wl + " fan=0");
    calibrated_.push_back("sweep policy=fan-only" + wl);
    for (const std::string& line : calibrated_) request(line);
  }

  std::string summary(const std::string& spans_path) const {
    std::map<std::string, std::vector<double>> durations;
    for (const Span& s : log_.spans())
      durations[s.name].push_back(s.end_us - s.start_us);
    Json spans;
    for (auto& [name, v] : durations) {
      std::vector<double> copy = v;
      const Quantile p50 = quantile(copy, 50.0);
      const Quantile p99 = quantile(copy, 99.0);
      spans.raw(name, Json()
                          .integer("count", v.size())
                          .num("p50_us", p50.value)
                          .num("p99_us", p99.value)
                          .integer("p99_beyond", p99.beyond)
                          .text());
    }
    // Self time per layer over the request trees: a span's duration
    // minus the union of its children.
    std::map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& s : log_.spans())
      if (s.parent) children[s.parent].push_back(&s);
    std::map<std::string, double> self;
    for (const Span& s : log_.spans()) {
      if (!s.parent && s.name != "request") continue;  // beside the tree
      std::vector<std::pair<double, double>> iv;
      for (const Span* c : children[s.id]) iv.emplace_back(c->start_us, c->end_us);
      std::sort(iv.begin(), iv.end());
      double covered = 0.0, cs = 0.0, ce = -1.0;
      for (const auto& [a, b] : iv) {
        if (a > ce) {
          if (ce > cs) covered += ce - cs;
          cs = a;
          ce = b;
        } else {
          ce = std::max(ce, b);
        }
      }
      if (ce > cs) covered += ce - cs;
      const std::string layer =
          s.name == "request" ? "unattributed" : s.name.substr(0, s.name.find('.'));
      self[layer] += (s.end_us - s.start_us) - covered;
    }
    Json calls_per_decide;
    for (const auto& [policy, t] : tallies_)
      calls_per_decide.num(policy_segment(policy),
                           t.decides ? static_cast<double>(t.model_calls) /
                                           static_cast<double>(t.decides)
                                     : 0.0);
    Json self_json;
    for (const auto& [layer, us] : self) self_json.num(layer, us);
    std::string calibrated;
    for (const std::string& c : calibrated_)
      calibrated += (calibrated.empty() ? "\"" : ",\"") + json_escape(c) + "\"";

    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      for (const Span& s : log_.spans())
        out << Json()
                   .str("name", s.name)
                   .integer("id", s.id)
                   .integer("parent", s.parent)
                   .integer("request", s.request)
                   .num("start_us", s.start_us)
                   .num("end_us", s.end_us)
                   .text()
            << '\n';
    }
    return Json()
        .integer("requests", requests_)
        .integer("mismatches", mismatches_)
        .str("first_mismatch", first_mismatch_)
        .raw("calibrated", "[" + calibrated + "]")
        .raw("model_calls_per_decide", calls_per_decide.text())
        .raw("spans", spans.text())
        .raw("self_us", self_json.text())
        .text();
  }

 private:
  /// The compute a cache miss runs; returns the value cached for `line`.
  std::string compute(const service::Request& req, const std::string& line,
                      std::uint64_t parent, std::uint64_t rid) {
    std::optional<sim::ChipSimulator> simulator;
    {
      Scoped s(log_, "sim.simulator_construct", parent, rid);
      simulator.emplace(engine_);
    }
    const auto wl = engine_->workload(req.workload, req.threads);
    const auto it = ref_.find(line);
    const std::string stored = it == ref_.end() ? "ok" : it->second;
    if (req.kind == service::RequestKind::kEquilibrium) {
      const auto& models = engine_->models();
      const auto& thermal_model = *models.thermal;
      core::KnobState knobs = core::KnobState::initial(
          thermal_model.floorplan().core_count(), thermal_model.tec_count(),
          req.fan);
      for (int& d : knobs.dvfs) d = req.dvfs;
      for (auto& on : knobs.tec_on) on = req.tec_on ? 1 : 0;
      tecfan::linalg::Vector temps;
      {
        Scoped s(log_,
                 req.tec_on ? "sim.equilibrium.tec_on" : "sim.equilibrium.tec_off",
                 parent, rid);
        temps = simulator->equilibrium(*wl, knobs);
      }
      // The replay must compute what the daemon served.
      double peak = 0.0;
      for (std::size_t c = 0; c < thermal_model.component_count(); ++c)
        peak = std::max(peak, temps[c]);
      service::Response r;
      r.add("peak_t_k", peak);
      r.add("peak_t_c", tecfan::kelvin_to_celsius(peak));
      r.add("fan_w", models.fan.power_w(req.fan));
      const std::string mine = service::serialize_response(r);
      if (it != ref_.end() && mine != it->second) {
        ++mismatches_;
        if (first_mismatch_.empty()) first_mismatch_ = line + " -> " + mine;
      }
      return mine;
    }
    const sim::RunResult base = base_scenario(*simulator, *wl, parent, rid);
    const std::string decide_span = "core.decide." + policy_segment(req.policy);
    if (req.kind == service::RequestKind::kRun) {
      sim::RunConfig cfg;
      cfg.threshold_k = base.peak_temp_k;
      cfg.fan_level = req.fan;
      cfg.max_sim_time_s = kMaxSimTimeS;
      cfg.record_trace = false;
      Scoped s(log_, "sim.run", parent, rid);
      TracedPolicy policy(core::make_named_policy(req.policy, engine_->control()),
                          log_, decide_span, s.id(), rid,
                          tallies_.at(req.policy));
      simulator->run(policy, *wl, cfg);
    } else if (req.kind == service::RequestKind::kSweep) {
      sim::SweepOptions opts;
      opts.threshold_k = base.peak_temp_k;
      opts.max_sim_time_s = kMaxSimTimeS;
      opts.record_trace = false;
      if (req.policy.rfind("tecfan", 0) == 0) opts.max_mean_dvfs = 0.5;
      Scoped s(log_, "sim.sweep", parent, rid);
      const std::uint64_t sweep_id = s.id();
      const core::ControlEnginePtr control = engine_->control();
      sim::run_with_fan_sweep(
          engine_,
          [&]() -> core::PolicyPtr {
            return std::make_unique<TracedPolicy>(
                core::make_named_policy(req.policy, control), log_,
                decide_span, sweep_id, rid, tallies_.at(req.policy));
          },
          *wl, opts);
    }
    return stored;
  }

  sim::RunResult base_scenario(sim::ChipSimulator& simulator,
                               const tecfan::perf::Workload& wl,
                               std::uint64_t parent, std::uint64_t rid) {
    const std::string key =
        std::string(wl.name()) + "/" + std::to_string(wl.thread_count());
    const auto it = base_.find(key);
    if (it != base_.end()) return it->second;
    Scoped s(log_, "sim.base_scenario", parent, rid);
    return base_.emplace(key, sim::measure_base_scenario(simulator, wl,
                                                         kMaxSimTimeS))
        .first->second;
  }

  /// Direct solver calls on the request's cooling states, beside the sim
  /// spans: one steady solve on a fresh workspace (the per-request
  /// Woodbury refresh included) for equilibrium keys, and transient steps
  /// with the TECs off then on for run/sweep keys.
  void solver_probe(const service::Request& req, std::uint64_t rid) {
    const auto& models = engine_->models();
    const auto& thermal_model = *models.thermal;
    const std::vector<double> power(thermal_model.component_count(), 0.5);
    thermal::CoolingState cooling;
    cooling.airflow_cfm = models.fan.airflow_cfm(req.fan);
    if (req.kind == service::RequestKind::kEquilibrium) {
      if (steady_probes_++ >= kMaxSolverProbes) return;
      cooling.tec_on.assign(thermal_model.tec_count(), req.tec_on ? 1 : 0);
      thermal::SteadyStateSolver solver(engine_->thermal());
      Scoped s(log_,
               req.tec_on ? "thermal.steady_solve.tec_on"
                          : "thermal.steady_solve.tec_off",
               0, rid);
      solver.solve(power, cooling);
      return;
    }
    if (transient_probes_++ >= kMaxSolverProbes) return;
    thermal::TransientSolver solver(engine_->thermal());
    tecfan::linalg::Vector temps(thermal_model.node_count(),
                                 thermal_model.ambient_k());
    for (const int on : {0, 1}) {
      cooling.tec_on.assign(thermal_model.tec_count(),
                            static_cast<std::uint8_t>(on));
      for (int step = 0; step < 4; ++step) {
        Scoped s(log_, "thermal.transient_step", 0, rid);
        temps = solver.step(temps, power, cooling);
      }
    }
  }

  static constexpr double kMaxSimTimeS = 2.0;  // tecfand's default cap
  static constexpr std::size_t kMaxSolverProbes = 400;

  const Reference& ref_;
  sim::ChipEnginePtr engine_;
  tecfan::cluster::ShardMap shards_;
  std::vector<std::unique_ptr<service::ResultCache>> caches_;
  std::map<std::string, sim::RunResult> base_;
  SpanLog log_;
  // One tally per policy, created up front (sweeps decide concurrently).
  std::map<std::string, DecideTally> tallies_;
  std::uint64_t requests_ = 0;
  std::uint64_t mismatches_ = 0;
  std::string first_mismatch_;
  std::size_t reply_bytes_ = 0;
  std::size_t steady_probes_ = 0;
  std::size_t transient_probes_ = 0;
  std::vector<std::string> calibrated_;
};

/// The replayed sequence: set-up keys first (their computes fill the
/// cache as the daemon's did), then the window's requests in the order
/// the connections issue them, bounded to keep the traced run short.
std::vector<std::string> replay_lines(const Plan& plan) {
  std::vector<std::string> out;
  for (const Key& k : plan.prime) out.push_back(k.line);
  if (!plan.partitions.empty()) {
    const std::size_t limit = plan.workload == "hit" ? 20000 : 400;
    const std::size_t parts = plan.partitions.size();
    for (std::size_t n = 0; n < limit; ++n) {
      const auto& part = plan.partitions[n % parts];
      out.push_back(part[(n / parts) % part.size()].line);
    }
  } else {
    for (std::size_t i = 0; i < plan.sequence.size() && i < 3000; ++i)
      out.push_back(plan.sequence[i].line);
  }
  return out;
}

}  // namespace

std::string run_replay(const Plan& plan, const Reference& ref,
                       const std::string& spans_path) {
  Replayer replayer(plan, ref);
  for (const std::string& line : replay_lines(plan)) replayer.request(line);
  replayer.calibrate();
  return replayer.summary(spans_path);
}

}  // namespace perfbench
