// Load generation against running daemons: set-up (warm-up + cache
// priming) and the measured window, with every reply verified.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus.h"
#include "verify.h"

namespace perfbench {

struct Target {
  std::uint16_t port = 0;                  // where clients connect
  std::vector<std::uint16_t> daemons;      // every tecfand
  std::uint16_t router = 0;                // tecrouter, 0 when direct
};

/// Warm every daemon's memoized engine state and prime the plan's keys
/// through `target.port`. Returns a JSON object; `ok` is false when a
/// set-up reply was wrong.
std::string run_setup(const Plan& plan, const Space& space,
                      const Reference& ref, const Target& target);

/// The measured window. `traced` sends a `trace=` context on a fixed
/// 1-in-N sample and reports span attribution. Returns a JSON object.
std::string run_measure(const Plan& plan, const Reference& ref,
                        const Target& target, double seconds, bool traced);

}  // namespace perfbench
