// In-process replay of a workload's request sequence through the
// program's public calls, with spans recorded around each call.
//
// Spans carry name, start, end, parent and request id; they stay in
// memory and are summarized (and optionally written out) at the end. A
// span's self time is its duration minus the part its children cover.
#pragma once

#include <cstddef>
#include <string>

#include "corpus.h"
#include "verify.h"

namespace perfbench {

/// Replay up to the plan's bounded request sequence and return a JSON
/// object of per-layer summaries. `spans_path`, when not empty, receives
/// every span as one JSON line.
std::string run_replay(const Plan& plan, const Reference& ref,
                       const std::string& spans_path);

}  // namespace perfbench
