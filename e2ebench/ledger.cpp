#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace e2e {

Percentile percentile(std::vector<double> values, double q) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) {
    return out;
  }
  std::sort(values.begin(), values.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  out.value = values[index];
  out.beyond = values.size() - 1 - index;
  return out;
}

double windowed_percentile(const std::vector<double>& ordered,
                           std::size_t window, double within, double across) {
  if (window == 0 || ordered.size() < window) {
    return percentile(ordered, within).value;
  }
  std::vector<double> per_window;
  for (std::size_t begin = 0; begin + window <= ordered.size();
       begin += window) {
    per_window.push_back(
        percentile(std::vector<double>(
                       ordered.begin() + static_cast<std::ptrdiff_t>(begin),
                       ordered.begin() +
                           static_cast<std::ptrdiff_t>(begin + window)),
                   within)
            .value);
  }
  return percentile(std::move(per_window), across).value;
}

std::vector<Nanos> match_completions(
    const std::vector<Completion>& completions,
    const std::vector<std::vector<Nanos>>& stamps, std::string& error) {
  // Per host: (seq, position in `completions`), sorted by seq.
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> by_host(
      stamps.size());
  for (std::size_t i = 0; i < completions.size(); ++i) {
    const Completion& c = completions[i];
    if (c.host >= stamps.size()) {
      error = "completion on unknown host " + std::to_string(c.host);
      return {};
    }
    by_host[c.host].emplace_back(c.seq, i);
  }
  std::vector<Nanos> out(completions.size(), 0);
  for (std::size_t h = 0; h < stamps.size(); ++h) {
    auto& list = by_host[h];
    if (list.size() != stamps[h].size()) {
      error = "host " + std::to_string(h) + ": " +
              std::to_string(list.size()) + " outcomes but " +
              std::to_string(stamps[h].size()) + " observed completions";
      return {};
    }
    std::sort(list.begin(), list.end());
    for (std::size_t k = 0; k < list.size(); ++k) {
      out[list[k].second] = stamps[h][k];
    }
  }
  return out;
}

std::vector<Nanos> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Nanos, Nanos>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 ||
        static_cast<std::size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const Nanos begin = std::max(span.begin, parent.begin);
    const Nanos end = std::min(span.end, parent.end);
    if (end > begin) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(begin, end);
    }
  }
  std::vector<Nanos> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& list = children[i];
    std::sort(list.begin(), list.end());
    Nanos covered = 0;
    Nanos cursor = spans[i].begin;
    for (const auto& [begin, end] : list) {
      const Nanos from = std::max(begin, cursor);
      if (end > from) {
        covered += end - from;
        cursor = end;
      }
    }
    out[i] = std::max<Nanos>(0, spans[i].end - spans[i].begin) - covered;
  }
  return out;
}

}  // namespace e2e
