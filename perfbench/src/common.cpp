#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Tail tail_latency(const std::vector<double>& latency_ms) {
  Tail tail;
  tail.samples = latency_ms.size();
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    const double beyond = static_cast<double>(latency_ms.size()) *
                          (1.0 - pct / 100.0);
    if (beyond >= 10.0 || pct == 50.0) {
      tail.pct = pct;
      tail.value = percentile(latency_ms, pct);
      return tail;
    }
  }
  return tail;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_freed_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

EndToEnd summarize(const Window& w, const std::vector<double>& setup_s) {
  EndToEnd e;
  e.specs_per_s = w.wall_s > 0 ? static_cast<double>(w.specs_ok) / w.wall_s : 0;
  e.latency_p50_ms = percentile(w.latency_ms, 50);
  e.latency_tail = tail_latency(w.latency_ms);
  e.setup_s = median(setup_s);
  e.setups = setup_s.size();
  e.peak_rss_mib = peak_rss_mib();
  e.absorb(w.tally);
  return e;
}

}  // namespace perfbench
