// perfbench_load: the benchmark's C++ side. perfbench/run.py starts the
// daemons and calls one subcommand per step; each prints one JSON object.
//
//   perfbench_load reference --out FILE
//   perfbench_load golden    --ref FILE --golden FILE
//   perfbench_load corpus    --workload W --seed S --seconds N
//   perfbench_load setup     --workload W --seed S --seconds N --ref FILE
//                            --port P --daemons P1[,P2]
//   perfbench_load measure   (as setup) [--router R] [--trace 0|1]
//   perfbench_load replay    --workload W --seed S --seconds N --ref FILE
//                            [--spans FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "corpus.h"
#include "load.h"
#include "replay.h"
#include "stats.h"
#include "verify.h"

namespace {

using namespace perfbench;

std::vector<std::uint16_t> ports(const std::string& csv) {
  std::vector<std::uint16_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    out.push_back(static_cast<std::uint16_t>(
        std::atoi(csv.substr(pos, comma - pos).c_str())));
    pos = comma + 1;
  }
  return out;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_load <reference|corpus|setup|"
                         "measure|replay> --key value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  const auto get = [&](const std::string& k, const std::string& def = "") {
    const auto it = opt.find(k);
    return it == opt.end() ? def : it->second;
  };
  const std::string workload = get("--workload");
  const Space space = program_space();

  if (cmd == "reference") {
    save_reference(compute_reference(equilibrium_keys(space), 4), get("--out"));
    std::printf("%s\n", Json().boolean("ok", true).text().c_str());
    return 0;
  }
  if (cmd == "golden") {
    Reference ref, golden;
    if (!load_reference(get("--ref"), &ref) ||
        !load_reference(get("--golden"), &golden)) {
      std::fprintf(stderr, "perfbench_load: cannot read '%s' or '%s'\n",
                   get("--ref").c_str(), get("--golden").c_str());
      return 2;
    }
    std::string first;
    const std::size_t bad = golden_mismatches(ref, golden, &first);
    std::printf("%s\n", Json()
                            .integer("checked", golden.size())
                            .integer("mismatches", bad)
                            .str("first_mismatch", first)
                            .num("rel_tolerance", kGoldenRelTolerance)
                            .text()
                            .c_str());
    return 0;
  }

  const Plan plan =
      make_plan(space, workload, std::strtoull(get("--seed", "1").c_str(),
                                               nullptr, 10),
                std::atof(get("--seconds", "10").c_str()));
  if (cmd == "corpus") {
    const CorpusReport r = describe(plan);
    std::printf("%s\n", Json()
                            .integer("keys", r.keys)
                            .integer("distinct", r.distinct)
                            .integer("universe", equilibrium_keys(space).size())
                            .integer("equilibrium", r.equilibrium)
                            .integer("other", r.other)
                            .num("tec_on_share", r.tec_on_share)
                            .num("tec_on_request_share", r.tec_on_request_share)
                            .integer("primed", plan.prime.size())
                            .integer("connections",
                                     static_cast<std::uint64_t>(plan.connections))
                            .num("offered_rps", plan.rate_rps)
                            .num("latency_limit_us", plan.latency_limit_us)
                            .integer("daemon_cache",
                                     static_cast<std::uint64_t>(plan.daemon_cache))
                            .boolean("routed", plan.routed)
                            .boolean("open_loop", plan.open_loop)
                            .str("why", plan.why)
                            .text()
                            .c_str());
    return 0;
  }

  Reference ref;
  if (!load_reference(get("--ref"), &ref)) {
    std::fprintf(stderr, "perfbench_load: cannot read reference '%s'\n",
                 get("--ref").c_str());
    return 2;
  }
  if (cmd == "replay") {
    std::printf("%s\n", run_replay(plan, ref, get("--spans")).c_str());
    return 0;
  }
  Target target;
  target.port = static_cast<std::uint16_t>(std::atoi(get("--port").c_str()));
  target.daemons = ports(get("--daemons"));
  target.router = static_cast<std::uint16_t>(std::atoi(get("--router", "0").c_str()));
  if (cmd == "setup") {
    std::printf("%s\n", run_setup(plan, space, ref, target).c_str());
    return 0;
  }
  if (cmd == "measure") {
    std::printf("%s\n",
                run_measure(plan, ref, target,
                            std::atof(get("--seconds", "10").c_str()),
                            get("--trace", "0") == "1")
                    .c_str());
    return 0;
  }
  std::fprintf(stderr, "perfbench_load: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 1;
  }
}
