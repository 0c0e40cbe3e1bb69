#include "load.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "service/framing.h"
#include "stats.h"
#include "util/trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One blocking client connection. Replies time out after kReplyTimeout
/// (SO_RCVTIMEO), so a stuck daemon shows up as timeouts, not a hang.
class Conn {
 public:
  static constexpr int kReplyTimeoutS = 20;

  explicit Conn(std::uint16_t port) : port_(port) { open(); }
  ~Conn() { close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool send(std::string_view data) {
    return fd_ >= 0 && tecfan::service::send_all(fd_, data);
  }
  std::optional<std::string> recv() {
    if (fd_ < 0) return std::nullopt;
    return reader_.read_line();
  }
  void reopen() {
    close();
    open();
  }

 private:
  void open() {
    fd_ = tecfan::service::connect_loopback(port_);
    if (fd_ < 0) return;
    timeval tv{};
    tv.tv_sec = kReplyTimeoutS;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    reader_.reset(fd_);
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  std::uint16_t port_;
  int fd_ = -1;
  tecfan::service::LineReader reader_;
};

std::string query(std::uint16_t port, const std::string& line) {
  Conn conn(port);
  if (!conn.send(line + "\n")) return {};
  return conn.recv().value_or("");
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A traced request as the client saw it.
struct TracedReply {
  std::uint64_t trace_id = 0;
  double rtt_us = 0.0;
  std::string reply;
};

/// One attempted request: when it finished (seconds into the window),
/// its latency, and how its reply verified.
struct Sample {
  float done_s;
  float latency_us;
  Outcome outcome;
};

bool verified(Outcome o) { return o == Outcome::kHit || o == Outcome::kComputed; }

/// Per-thread results; merged after the window.
struct Recorder {
  std::vector<Sample> samples;
  std::vector<double> lateness_us;  // open loop: send - due
  std::string first_mismatch;
  std::vector<TracedReply> traced;
  Clock::time_point last_done{};

  void record(Outcome o, double us, Clock::time_point start,
              Clock::time_point done, const Key& key,
              const std::string& reply) {
    samples.push_back({static_cast<float>(micros(start, done) / 1e6),
                       static_cast<float>(us), o});
    last_done = std::max(last_done, done);
    if (o == Outcome::kMismatch && first_mismatch.empty())
      first_mismatch = key.line + " -> " + reply;
  }

  void merge(Recorder&& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    lateness_us.insert(lateness_us.end(), other.lateness_us.begin(),
                       other.lateness_us.end());
    if (first_mismatch.empty()) first_mismatch = other.first_mismatch;
    for (auto& t : other.traced) traced.push_back(std::move(t));
    last_done = std::max(last_done, other.last_done);
  }
};

/// Client-side numbers over one stretch of the window.
struct Window {
  double seconds = 0.0;
  double steal_share = 0.0;  // host steal over all CPUs, /proc/stat
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t within_limit = 0;
  std::vector<double> latency_us, hit_latency_us;

  void add(const Sample& s, double limit_us) {
    ++attempted;
    if (!verified(s.outcome)) return;
    ++ok;
    latency_us.push_back(s.latency_us);
    if (s.outcome == Outcome::kHit) hit_latency_us.push_back(s.latency_us);
    if (s.latency_us <= limit_us) ++within_limit;
  }

  double throughput() const { return static_cast<double>(ok) / seconds; }
  double slo_share() const {
    return attempted ? static_cast<double>(within_limit) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
  std::string json() {
    return Json()
        .num("seconds", seconds)
        .integer("attempted", attempted)
        .integer("ok", ok)
        .num("throughput_rps", throughput())
        .quantile("latency_p50_us", quantile(latency_us, 50.0))
        .quantile("latency_tail_us", tail_quantile(latency_us))
        .quantile("hit_latency_p50_us", quantile(hit_latency_us, 50.0))
        .quantile("hit_latency_tail_us", tail_quantile(hit_latency_us))
        .num("slo_share", slo_share())
        .num("steal_share", steal_share)
        .text();
  }
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Fixed-time windows are cut into epochs of about this length; clients
/// reconnect at each boundary (fresh daemon session threads) and each
/// headline number is a median over epochs of that epoch's value.
constexpr double kEpochSeconds = 2.0;

int epoch_count(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kEpochSeconds)));
}

/// Host steal and total CPU time so far, from /proc/stat's "cpu" line
/// (zeros where it cannot be read: every epoch then counts as clean).
std::pair<std::uint64_t, std::uint64_t> cpu_steal_total() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  std::uint64_t total = 0;
  for (const unsigned long long x : v) total += x;
  return {v[7], total};
}

const std::string& expected_for(const Reference& ref, const Key& key) {
  static const std::string kNone = "<no reference>";
  const auto it = ref.find(key.line);
  return it == ref.end() ? kNone : it->second;
}

std::uint64_t trace_id_for(int conn, std::size_t n) {
  return (static_cast<std::uint64_t>(conn + 1) << 48) | (n + 1);
}

// ---------------------------------------------------------------- traces

struct SpanRec {
  std::string name;
  std::string tier;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

std::string json_field(std::string_view obj, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  std::size_t pos = obj.find(pat);
  if (pos == std::string_view::npos) return {};
  pos += pat.size();
  if (pos < obj.size() && obj[pos] == '"') {
    const std::size_t end = obj.find('"', pos + 1);
    return std::string(obj.substr(pos + 1, end - pos - 1));
  }
  std::size_t end = pos;
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}') ++end;
  return std::string(obj.substr(pos, end - pos));
}

/// One `trace` verb JSON object: {"trace_id":"..","spans":[{..},..]}.
std::pair<std::uint64_t, std::vector<SpanRec>> parse_trace_json(
    std::string_view text) {
  std::vector<SpanRec> spans;
  const std::uint64_t id =
      std::strtoull(json_field(text, "trace_id").c_str(), nullptr, 16);
  std::size_t pos = text.find("\"spans\":[");
  while (pos != std::string_view::npos) {
    const std::size_t open = text.find('{', pos);
    if (open == std::string_view::npos) break;
    const std::size_t close = text.find('}', open);
    const std::string_view obj = text.substr(open, close - open + 1);
    SpanRec s;
    s.name = json_field(obj, "name");
    s.tier = json_field(obj, "tier");
    s.span = std::strtoull(json_field(obj, "span").c_str(), nullptr, 16);
    s.parent = std::strtoull(json_field(obj, "parent").c_str(), nullptr, 16);
    s.start_us = std::strtod(json_field(obj, "start_us").c_str(), nullptr);
    s.dur_us = std::strtod(json_field(obj, "dur_us").c_str(), nullptr);
    spans.push_back(std::move(s));
    pos = close + 1;
  }
  return {id, std::move(spans)};
}

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_s = 0.0, cur_e = -1.0;
  for (const auto& [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return total;
}

/// Self time of every span: duration minus the part its children cover.
/// Keys are "<tier>.<name>".
std::map<std::string, double> self_times(const std::vector<SpanRec>& spans) {
  std::map<std::string, double> out;
  for (const SpanRec& s : spans) {
    std::vector<std::pair<double, double>> kids;
    for (const SpanRec& c : spans)
      if (c.parent == s.span && &c != &s)
        kids.emplace_back(std::max(c.start_us, s.start_us),
                          std::min(c.start_us + c.dur_us,
                                   s.start_us + s.dur_us));
    out[s.tier + "." + s.name] += s.dur_us - union_length(std::move(kids));
  }
  return out;
}

/// Attribution over traced requests: per-stage self times, the client
/// round trip not covered by any daemon stage below the outermost e2e
/// span (residual), and rtt minus that e2e span (wire).
std::string attribution(const std::vector<TracedReply>& traced,
                        const std::map<std::uint64_t, std::vector<SpanRec>>&
                            router_traces,
                        bool routed) {
  std::map<std::string, std::vector<double>> stage;
  std::vector<double> residual, wire, rtts;
  double residual_sum = 0.0, rtt_sum = 0.0;
  for (const TracedReply& t : traced) {
    std::vector<SpanRec> spans;
    std::string root_tier = "server";
    if (routed) {
      const auto it = router_traces.find(t.trace_id);
      if (it == router_traces.end()) continue;
      spans = it->second;
      root_tier = "router";
    } else {
      const std::size_t pos = t.reply.find(" spans=");
      if (pos == std::string::npos) continue;
      std::string_view enc = std::string_view(t.reply).substr(pos + 7);
      enc = enc.substr(0, enc.find(' '));
      // Reply spans carry no ids: the e2e root parents every stage.
      for (const tecfan::ReplySpan& r : tecfan::decode_reply_spans(enc)) {
        SpanRec s;
        s.name = tecfan::span_name(r.name);
        s.tier = "server";
        s.start_us = static_cast<double>(r.start_rel_us);
        s.dur_us = static_cast<double>(r.duration_us);
        s.span = s.name == "e2e" ? 1 : 2 + spans.size();
        s.parent = s.name == "e2e" ? 0 : 1;
        spans.push_back(std::move(s));
      }
    }
    const auto root = std::find_if(spans.begin(), spans.end(),
                                   [&](const SpanRec& s) {
                                     return s.name == "e2e" &&
                                            s.tier == root_tier;
                                   });
    if (root == spans.end()) continue;
    const std::map<std::string, double> self = self_times(spans);
    double staged = 0.0;
    for (const auto& [name, us] : self) {
      stage[name].push_back(us);
      if (name != root_tier + ".e2e") staged += us;
    }
    residual.push_back(t.rtt_us - staged);
    wire.push_back(t.rtt_us - root->dur_us);
    rtts.push_back(t.rtt_us);
    residual_sum += t.rtt_us - staged;
    rtt_sum += t.rtt_us;
  }
  Json stages;
  for (auto& [name, v] : stage) stages.quantile(name, quantile(v, 50.0));
  return Json()
      .integer("requests", residual.size())
      .quantile("rtt_us", quantile(rtts, 50.0))
      .quantile("residual_us", quantile(residual, 50.0))
      .num("residual_share", rtt_sum > 0 ? residual_sum / rtt_sum : 0.0)
      .quantile("wire_us", quantile(wire, 50.0))
      .raw("stage_self_us", stages.text())
      .text();
}

// ------------------------------------------------------- daemon snapshots

struct DaemonSnapshot {
  std::map<std::string, std::string> stats, metrics;
};

DaemonSnapshot snapshot(std::uint16_t port) {
  return {reply_fields(query(port, "stats")),
          reply_fields(query(port, "metrics"))};
}

double delta(const DaemonSnapshot& a, const DaemonSnapshot& b,
             const std::string& stat) {
  return field_number(b.stats, stat) - field_number(a.stats, stat);
}

std::string stage_quantiles(const std::vector<DaemonSnapshot>& before,
                            const std::vector<DaemonSnapshot>& after,
                            const std::vector<std::string>& names) {
  Json out;
  for (const std::string& name : names) {
    tecfan::LatencyHistogram::Snapshot merged;
    for (std::size_t i = 0; i < before.size(); ++i)
      merged.merge(histogram_delta(metrics_histogram(after[i].metrics, name),
                                   metrics_histogram(before[i].metrics, name)));
    out.raw(name, Json()
                      .integer("count", merged.count)
                      .num("p50_us", merged.percentile(50.0))
                      .num("p99_us", merged.percentile(99.0))
                      .text());
  }
  return out.text();
}

// ------------------------------------------------------------ load loops

void closed_loop(int c, const Plan& plan, const Reference& ref,
                 const Target& target, bool traced,
                 const std::atomic<bool>& go, const Clock::time_point& start,
                 Clock::time_point end, int epochs, Recorder& rec) {
  Conn conn(target.port);
  const std::vector<Key>& walk = plan.partitions[static_cast<std::size_t>(c)];
  const std::size_t every = plan.trace_every;
  std::string buf;
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  const auto epoch_len = (end - start) / epochs;
  long epoch = 0;
  for (std::size_t n = 0;; ++n) {
    const Key* key = &walk[n % walk.size()];
    buf = key->line;
    std::uint64_t tid = 0;
    if (traced && n % every == 0) {
      tid = trace_id_for(c, n);
      buf += " trace=" + hex(tid) + "-0";
    }
    buf += '\n';
    const Clock::time_point t0 = Clock::now();
    std::optional<std::string> reply;
    if (conn.send(buf)) reply = conn.recv();
    const Clock::time_point t1 = Clock::now();
    if (!reply) {
      rec.record(Outcome::kTimeout, 0, start, t1, *key, "");
      conn.reopen();
    } else {
      const double us = micros(t0, t1);
      rec.record(classify(*reply, expected_for(ref, *key)), us, start, t1,
                 *key, *reply);
      if (tid) rec.traced.push_back({tid, us, std::move(*reply)});
    }
    if (t1 >= end) break;
    if (const long e = (t1 - start) / epoch_len; e != epoch) {
      epoch = e;
      conn.reopen();
    }
  }
}

void open_loop_conn(int c, const Plan& plan, const Reference& ref,
                    const Target& target, bool traced,
                    const std::atomic<bool>& go, const Clock::time_point& start,
                    Recorder& rec) {
  struct Pending {
    Clock::time_point due;
    const Key* key;
    std::uint64_t tid;
  };
  Conn conn(target.port);
  std::mutex mu;
  std::deque<Pending> fifo;
  const auto conns = static_cast<std::size_t>(plan.connections);
  std::size_t expected = 0;
  for (std::size_t i = static_cast<std::size_t>(c); i < plan.sequence.size();
       i += conns)
    ++expected;
  std::vector<double> lateness;

  // jthread: joined on every path out of this function, exceptions too.
  std::jthread sender([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    std::string buf;
    for (std::size_t i = static_cast<std::size_t>(c); i < plan.sequence.size();
         i += conns) {
      const Key& key = plan.sequence[i];
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / plan.rate_rps));
      std::this_thread::sleep_until(due);
      buf = key.line;
      std::uint64_t tid = 0;
      if (traced && (i / conns) % plan.trace_every == 0) {
        tid = trace_id_for(c, i);
        buf += " trace=" + hex(tid) + "-0";
      }
      buf += '\n';
      {
        std::lock_guard<std::mutex> lock(mu);
        fifo.push_back({due, &key, tid});
      }
      lateness.push_back(micros(due, Clock::now()));
      // A dead connection leaves the rest unanswered: the receiver counts
      // them as timeouts.
      if (!conn.send(buf)) break;
    }
  });

  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  std::size_t received = 0;
  while (received < expected) {
    std::optional<std::string> reply = conn.recv();
    const Clock::time_point now = Clock::now();
    if (!reply) break;
    Pending p;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (fifo.empty()) break;  // unsolicited reply: protocol broken
      p = fifo.front();
      fifo.pop_front();
    }
    ++received;
    const double us = micros(p.due, now);
    rec.record(classify(*reply, expected_for(ref, *p.key)), us, start, now,
               *p.key, *reply);
    if (p.tid) rec.traced.push_back({p.tid, us, std::move(*reply)});
  }
  // Whatever was never answered (or never sent) counts as a timeout.
  for (std::size_t i = received; i < expected; ++i)
    rec.samples.push_back({static_cast<float>(micros(start, Clock::now()) / 1e6),
                           0.0f, Outcome::kTimeout});
  sender.join();
  rec.lateness_us = std::move(lateness);
}

}  // namespace

std::string run_setup(const Plan& plan, const Space& space,
                      const Reference& ref, const Target& target) {
  const Clock::time_point t0 = Clock::now();
  // Warm each tecfand directly (the router would pick one shard), then
  // prime the plan's keys where the clients will ask for them.
  struct Job {
    std::uint16_t port;
    std::string line;
    const Key* key;
  };
  std::vector<Job> warm, prime;
  for (const std::uint16_t port : target.daemons)
    for (const std::string& line : warm_lines(space))
      warm.push_back({port, line, nullptr});
  for (const Key& k : plan.prime) prime.push_back({target.port, k.line, &k});

  std::atomic<std::uint64_t> bad{0};
  std::string first_bad;
  std::mutex bad_mu;
  for (const std::vector<Job>* jobs : {&warm, &prime}) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&] {
        std::map<std::uint16_t, std::unique_ptr<Conn>> conns;
        for (std::size_t i = next++; i < jobs->size(); i = next++) {
          const Job& job = (*jobs)[i];
          auto& conn = conns[job.port];
          if (!conn) conn = std::make_unique<Conn>(job.port);
          std::optional<std::string> reply;
          if (conn->send(job.line + "\n")) reply = conn->recv();
          const bool good =
              reply && (job.key ? classify(*reply, expected_for(ref, *job.key)) ==
                                      Outcome::kComputed
                                : reply->rfind("ok", 0) == 0);
          if (!good) {
            ++bad;
            std::lock_guard<std::mutex> lock(bad_mu);
            if (first_bad.empty())
              first_bad = job.line + " -> " + reply.value_or("<no reply>");
          }
        }
      });
    for (auto& t : threads) t.join();
  }
  return Json()
      .boolean("ok", bad == 0)
      .integer("warm", warm.size())
      .integer("primed", prime.size())
      .integer("bad", bad)
      .str("first_bad", first_bad)
      .num("seconds", micros(t0, Clock::now()) / 1e6)
      .text();
}

std::string run_measure(const Plan& plan, const Reference& ref,
                        const Target& target, double seconds, bool traced) {
  std::vector<DaemonSnapshot> before, after;
  for (const std::uint16_t p : target.daemons) before.push_back(snapshot(p));
  const DaemonSnapshot router_before =
      target.router ? snapshot(target.router) : DaemonSnapshot{};

  const int epochs = epoch_count(seconds);
  std::vector<Recorder> recs(static_cast<std::size_t>(plan.connections));
  std::atomic<bool> go{false};
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  std::mutex error_mu;
  std::string thread_error;
  for (int c = 0; c < plan.connections; ++c)
    threads.emplace_back([&, c] {
      try {
        if (plan.open_loop)
          open_loop_conn(c, plan, ref, target, traced, go, start,
                         recs[static_cast<std::size_t>(c)]);
        else
          closed_loop(c, plan, ref, target, traced, go, start, end, epochs,
                      recs[static_cast<std::size_t>(c)]);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        thread_error = e.what();
      }
    });
  std::this_thread::sleep_until(start);
  start = Clock::now();
  go.store(true, std::memory_order_release);

  // Host steal per epoch, sampled at the epoch boundaries the clients use.
  std::vector<double> steal(static_cast<std::size_t>(epochs), 0.0);
  std::thread steal_sampler([&] {
    auto prev = cpu_steal_total();
    for (int e = 0; e < epochs; ++e) {
      std::this_thread::sleep_until(start + (end - start) * (e + 1) / epochs);
      const auto cur = cpu_steal_total();
      if (cur.second > prev.second)
        steal[static_cast<std::size_t>(e)] =
            static_cast<double>(cur.first - prev.first) /
            static_cast<double>(cur.second - prev.second);
      prev = cur;
    }
  });

  // Traced runs poll the router while the load runs: its span rings are
  // small, and the per-backend pipe depth is only visible as a gauge.
  std::map<std::uint64_t, std::vector<SpanRec>> router_traces;
  double pipe_inflight_max = 0.0;
  std::atomic<bool> done{false};
  std::thread poller;
  if (traced && target.router)
    poller = std::thread([&] {
      while (!done.load()) {
        const auto m = reply_fields(query(target.router, "metrics"));
        for (std::size_t b = 0; b < target.daemons.size(); ++b)
          pipe_inflight_max = std::max(
              pipe_inflight_max,
              field_number(m, "backend" + std::to_string(b) + "_pipe_inflight"));
        for (const auto& [k, v] :
             reply_fields(query(target.router, "trace limit=256")))
          if (k.size() > 1 && k[0] == 't' && k != "traces") {
            auto [id, spans] = parse_trace_json(v);
            if (id) router_traces[id] = std::move(spans);
          }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  for (auto& t : threads) t.join();
  steal_sampler.join();
  done = true;
  if (poller.joinable()) poller.join();

  Recorder total;
  for (auto& r : recs) total.merge(std::move(r));
  for (const std::uint16_t p : target.daemons) after.push_back(snapshot(p));
  const DaemonSnapshot router_after =
      target.router ? snapshot(target.router) : DaemonSnapshot{};

  const double elapsed_s =
      std::max(1e-9, micros(start, std::max(total.last_done, start)) / 1e6);
  // The whole window, and its epochs. Requests finishing after the
  // nominal end belong to the last epoch.
  const double epoch_s = seconds / epochs;
  Window whole;
  whole.seconds = elapsed_s;
  std::vector<Window> parts(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) {
    parts[static_cast<std::size_t>(e)].seconds =
        e + 1 < epochs ? epoch_s : elapsed_s - epoch_s * (epochs - 1);
    parts[static_cast<std::size_t>(e)].steal_share =
        steal[static_cast<std::size_t>(e)];
  }
  std::uint64_t outcomes[6] = {};
  for (const Sample& s : total.samples) {
    ++outcomes[static_cast<int>(s.outcome)];
    whole.add(s, plan.latency_limit_us);
    const int e = std::min(epochs - 1, static_cast<int>(s.done_s / epoch_s));
    parts[static_cast<std::size_t>(std::max(e, 0))].add(s, plan.latency_limit_us);
  }
  const std::uint64_t attempted = whole.attempted;
  const std::uint64_t ok = whole.ok;
  // Headline numbers: medians over the least disturbed epochs.
  std::vector<double> thr, p50, tail, hit_p50, hit_tail, slo;
  std::vector<double> hit_samples, tail_pct;
  std::string epoch_json, used_json;
  for (Window& w : parts)
    epoch_json += (epoch_json.empty() ? "" : ",") + w.json();
  const std::vector<std::size_t> used = headline_epochs(steal);
  for (const std::size_t i : used) {
    Window& w = parts[i];
    used_json += (used_json.empty() ? "" : ",") + std::to_string(i);
    thr.push_back(w.throughput());
    slo.push_back(w.slo_share());
    p50.push_back(quantile(w.latency_us, 50.0).value);
    const Quantile t = tail_quantile(w.latency_us);
    tail.push_back(t.value);
    tail_pct.push_back(t.pct);
    hit_p50.push_back(quantile(w.hit_latency_us, 50.0).value);
    hit_tail.push_back(tail_quantile(w.hit_latency_us).value);
    hit_samples.push_back(static_cast<double>(w.hit_latency_us.size()));
  }

  // Daemon-side view of the window: cache behaviour and stage histograms.
  // Every daemon's own hit share must match the design, so an aliased
  // corpus (or a broken cache) fails loudly.
  double hits = 0, misses = 0, evictions = 0, rejected = 0;
  bool hit_share_ok = true;
  std::vector<double> per_backend;
  Json daemons;
  for (std::size_t i = 0; i < target.daemons.size(); ++i) {
    const double h = delta(before[i], after[i], "cache_hits");
    const double m = delta(before[i], after[i], "cache_misses");
    const double share = h + m > 0 ? h / (h + m) : 0.0;
    hit_share_ok = hit_share_ok && h + m > 0 &&
                   std::abs(share - plan.design_hit_share) <=
                       plan.hit_share_tolerance;
    hits += h;
    misses += m;
    evictions += delta(before[i], after[i], "cache_evictions");
    rejected += delta(before[i], after[i], "pool_rejected");
    per_backend.push_back(h + m);
    daemons.raw(std::to_string(target.daemons[i]),
                Json()
                    .num("cache_hits", h)
                    .num("cache_misses", m)
                    .num("cache_hit_share", share)
                    .num("computes", delta(before[i], after[i], "computes"))
                    .text());
  }
  const double lookups = hits + misses;
  const double hit_share = lookups > 0 ? hits / lookups : 0.0;

  Json out;
  out.str("workload", plan.workload)
      .integer("seed", plan.seed)
      .integer("connections", static_cast<std::uint64_t>(plan.connections))
      .boolean("open_loop", plan.open_loop)
      .num("offered_rps", plan.rate_rps)
      .num("latency_limit_us", plan.latency_limit_us)
      .integer("attempted", attempted)
      .integer("ok", ok);
  for (int o = 0; o < 6; ++o)
    out.integer(outcome_name(static_cast<Outcome>(o)), outcomes[o]);
  out.str("first_mismatch", total.first_mismatch)
      .str("load_error", thread_error)
      .num("elapsed_s", elapsed_s)
      .integer("epochs", static_cast<std::uint64_t>(epochs))
      .raw("headline_epochs", "[" + used_json + "]")
      .num("clean_steal_share", kCleanSteal)
      .num("throughput_rps", median_of(thr))
      .num("latency_p50_us", median_of(p50))
      .num("latency_tail_us", median_of(tail))
      .num("latency_tail_pct", median_of(tail_pct))
      .num("hit_latency_p50_us", median_of(hit_p50))
      .num("hit_latency_tail_us", median_of(hit_tail))
      .num("hit_samples", median_of(hit_samples))
      .num("slo_share", median_of(slo))
      .raw("window", whole.json())
      .raw("epoch_windows", "[" + epoch_json + "]")
      .num("failed_share",
           attempted ? static_cast<double>(attempted - ok) /
                           static_cast<double>(attempted)
                     : 0.0);
  if (plan.open_loop) {
    std::vector<double> late = total.lateness_us;
    out.quantile("lateness_p50_us", quantile(late, 50.0))
        .quantile("lateness_p99_us", quantile(late, 99.0))
        .num("lateness_max_us", late.empty() ? 0.0 : late.back());
  }
  out.num("cache_hit_share", hit_share)
      .num("cache_lookups", lookups)
      .num("design_hit_share", plan.design_hit_share)
      .num("hit_share_tolerance", plan.hit_share_tolerance)
      .boolean("hit_share_ok", hit_share_ok)
      .num("cache_evictions", evictions)
      .num("busy_rejections", rejected)
      .raw("daemons", daemons.text())
      .raw("daemon_stages",
           stage_quantiles(before, after,
                           {"parse", "cache_probe", "queue_wait", "compute",
                            "serialize", "e2e_hit", "e2e_miss"}))
      // Since launch, set-up included: the only daemon-side view of the
      // queue and compute stages on a workload whose window never
      // computes (hit).
      .raw("daemon_stages_lifetime",
           stage_quantiles(std::vector<DaemonSnapshot>(after.size()), after,
                           {"queue_wait", "compute"}));
  if (target.router) {
    double busiest = 0.0, sum = 0.0;
    for (const double n : per_backend) {
      busiest = std::max(busiest, n);
      sum += n;
    }
    out.raw("router",
            Json()
                .raw("stages", stage_quantiles({router_before}, {router_after},
                                               {"route", "backend_wait",
                                                "e2e_hit", "e2e_miss"}))
                .num("failovers", field_number(router_after.stats, "failovers") -
                                      field_number(router_before.stats,
                                                   "failovers"))
                .num("hedges", field_number(router_after.stats, "hedges") -
                                   field_number(router_before.stats, "hedges"))
                .num("pipe_inflight_max", pipe_inflight_max)
                .num("backend_share_max",
                     sum > 0 ? busiest / sum *
                                   static_cast<double>(per_backend.size())
                             : 0.0)
                .text());
  }
  if (traced)
    out.integer("trace_every", plan.trace_every)
        .raw("attribution",
             attribution(total.traced, router_traces, target.router != 0));
  return out.text();
}

}  // namespace perfbench
