// Reply verification against an in-process reference, and of that
// reference against committed golden replies.
//
// The reference for a key is what service::Server::handle_line answers on
// a private Server in this process. A daemon reply is correct when it is
// that line, modulo the `cached=1` flag (which depends on the daemon's
// own cache) and the `trace=`/`spans=` fields a traced request appends.
//
// The reference comes from the build under test, so on its own it cannot
// see a change to the computed answers. perfbench/golden/equilibrium.tsv
// holds the replies of the whole equilibrium key space as first
// committed; the reference must match them within kGoldenRelTolerance,
// which holds every daemon reply (equal to the reference) to them too.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "corpus.h"

namespace perfbench {

enum class Outcome {
  kHit,       // correct, served from the result cache
  kComputed,  // correct, computed
  kError,     // `error ...`
  kBusy,      // `busy`
  kTimeout,   // no reply in time (or the connection broke)
  kMismatch,  // an ok reply that differs from the reference
};
const char* outcome_name(Outcome outcome);

using Reference = std::unordered_map<std::string, std::string>;

/// Answer every key on a private Server driven from `threads` threads.
Reference compute_reference(const std::vector<Key>& keys, int threads);

/// One "key<TAB>reply" line per entry, sorted by key; load returns false
/// on a missing or malformed file.
void save_reference(const Reference& ref, const std::string& path);
bool load_reference(const std::string& path, Reference* ref);

/// Classify one reply to `expected` (the reference line).
Outcome classify(std::string_view reply, std::string_view expected);

/// Replies carry ten significant digits: a rounding-level change in the
/// solvers stays within this, a changed answer does not.
constexpr double kGoldenRelTolerance = 1e-6;

/// True when both are `ok` replies with the same fields, numeric values
/// within `rel_tol` of each other and other values equal.
bool replies_close(const std::string& a, const std::string& b, double rel_tol);

/// Keys of `golden` missing from `ref` (or the reverse) and replies not
/// close to the golden one; `first` receives the first such key.
std::size_t golden_mismatches(const Reference& ref, const Reference& golden,
                              std::string* first);

}  // namespace perfbench
