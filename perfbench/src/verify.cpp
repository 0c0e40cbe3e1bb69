#include "verify.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "service/server.h"
#include "stats.h"

namespace perfbench {

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kHit:
      return "hit";
    case Outcome::kComputed:
      return "computed";
    case Outcome::kError:
      return "error";
    case Outcome::kBusy:
      return "busy";
    case Outcome::kTimeout:
      return "timeout";
    case Outcome::kMismatch:
      return "mismatch";
  }
  return "?";
}

Reference compute_reference(const std::vector<Key>& keys, int threads) {
  tecfan::service::ServerOptions options;
  options.workers = static_cast<std::size_t>(threads);
  options.cache_capacity = keys.size() + 16;
  tecfan::service::Server server(options);
  std::vector<std::string> replies(keys.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < keys.size(); i = next++)
        replies[i] = server.handle_line(keys[i].line);
    });
  for (auto& t : pool) t.join();
  Reference ref;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string_view r = replies[i];
    if (r.rfind("ok", 0) != 0)
      throw std::runtime_error("reference server refused '" + keys[i].line +
                               "': " + replies[i]);
    // The reference itself must be a computed (uncached) answer.
    if (classify(r, r) != Outcome::kComputed)
      throw std::runtime_error("reference reply is not a computed answer: " +
                               replies[i]);
    ref.emplace(keys[i].line, replies[i]);
  }
  return ref;
}

void save_reference(const Reference& ref, const std::string& path) {
  const std::map<std::string, std::string> sorted(ref.begin(), ref.end());
  std::ofstream out(path + ".tmp");
  for (const auto& [key, reply] : sorted) out << key << '\t' << reply << '\n';
  out.close();
  if (!out || std::rename((path + ".tmp").c_str(), path.c_str()) != 0)
    throw std::runtime_error("cannot write reference " + path);
}

bool load_reference(const std::string& path, Reference* ref) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    ref->emplace(line.substr(0, tab), line.substr(tab + 1));
  }
  return !ref->empty();
}

Outcome classify(std::string_view reply, std::string_view expected) {
  // A traced request's reply ends in `trace=`/`spans=` fields.
  reply = reply.substr(0, reply.find(" trace="));
  if (reply == "busy") return Outcome::kBusy;
  if (reply.rfind("error", 0) == 0) return Outcome::kError;
  constexpr std::string_view kCached = "ok cached=1";
  if (reply.rfind(kCached, 0) == 0) {
    // "ok cached=1 a=b" must equal "ok a=b".
    const std::string_view rest = reply.substr(kCached.size());
    return expected.size() == 2 + rest.size() &&
                   expected.rfind("ok", 0) == 0 &&
                   expected.substr(2) == rest
               ? Outcome::kHit
               : Outcome::kMismatch;
  }
  return reply == expected ? Outcome::kComputed : Outcome::kMismatch;
}

bool replies_close(const std::string& a, const std::string& b,
                   double rel_tol) {
  if (a.rfind("ok", 0) != 0 || b.rfind("ok", 0) != 0) return false;
  const std::map<std::string, std::string> fa = reply_fields(a);
  const std::map<std::string, std::string> fb = reply_fields(b);
  if (fa.size() != fb.size()) return false;
  for (const auto& [key, va] : fa) {
    const auto it = fb.find(key);
    if (it == fb.end()) return false;
    const std::string& vb = it->second;
    char* end_a = nullptr;
    char* end_b = nullptr;
    const double x = std::strtod(va.c_str(), &end_a);
    const double y = std::strtod(vb.c_str(), &end_b);
    const bool numeric = !va.empty() && !vb.empty() && *end_a == '\0' &&
                         *end_b == '\0';
    if (!numeric) {
      if (va != vb) return false;
    } else if (std::abs(x - y) > rel_tol * std::max(std::abs(x), std::abs(y))) {
      return false;
    }
  }
  return true;
}

std::size_t golden_mismatches(const Reference& ref, const Reference& golden,
                              std::string* first) {
  std::size_t bad = 0;
  const auto miss = [&](const std::string& key) {
    if (bad++ == 0 && first) *first = key;
  };
  for (const auto& [key, want] : golden) {
    const auto it = ref.find(key);
    if (it == ref.end() || !replies_close(it->second, want, kGoldenRelTolerance))
      miss(key);
  }
  for (const auto& [key, reply] : ref)
    if (!golden.count(key)) miss(key);
  return bad;
}

}  // namespace perfbench
