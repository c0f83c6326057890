// Measurement helpers of the end-to-end benchmark: percentiles that carry
// their sample counts, attribution of externally observed completion stamps
// to submissions, and span self time for the traced per-layer ledger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace e2e {

using horse::util::Nanos;

/// A nearest-rank percentile with the sample counts that qualify it: a
/// tail percentile is only worth reporting when at least ten samples lie
/// beyond it.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;
  /// Samples strictly after the percentile's rank.
  std::size_t beyond = 0;
};

/// Nearest-rank percentile (q in [0, 1]) of `values`, which need not be
/// sorted. No samples gives {0, 0, 0}.
[[nodiscard]] Percentile percentile(std::vector<double> values, double q);

/// The `across` percentile, over consecutive windows of `window` values (in
/// arrival order), of each window's `within` percentile. A trailing partial
/// window is ignored unless there is no full one. An episode of
/// interference from the host slows down the windows it falls in; an
/// `across` at or below 0.5 leaves the result to the windows it missed.
[[nodiscard]] double windowed_percentile(const std::vector<double>& ordered,
                                         std::size_t window, double within,
                                         double across);

/// One finished submission as the benchmark sees it after drain().
struct Completion {
  std::uint64_t seq = 0;
  std::size_t host = 0;
};

/// Attribute completion stamps to submissions. With one worker per host,
/// each host finishes its submissions in seq order, so the k-th stamp the
/// generator observed on host h belongs to host h's k-th smallest seq.
/// `stamps[h]` are host h's stamps in observation order. Returns one stamp
/// per entry of `completions` (same order), or an empty vector and an
/// explanation in `error` when the counts disagree.
[[nodiscard]] std::vector<Nanos> match_completions(
    const std::vector<Completion>& completions,
    const std::vector<std::vector<Nanos>>& stamps, std::string& error);

/// A timed interval of one request. `parent` indexes the enclosing span in
/// the same request's span list (-1 for the root).
struct Span {
  int layer = 0;
  int parent = -1;
  Nanos begin = 0;
  Nanos end = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and
/// child time outside the parent's interval is ignored).
[[nodiscard]] std::vector<Nanos> self_times(const std::vector<Span>& spans);

}  // namespace e2e
