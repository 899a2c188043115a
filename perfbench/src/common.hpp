// Shared vocabulary of the benchmark program: run options, failure tallies,
// measured windows and the end-to-end summary every workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Worker threads of every pool the benchmark creates, and the number of
/// concurrent serve connections: the 4-vCPU reference host's `nproc`.
inline constexpr std::size_t kWorkers = 4;

/// Set-up repetitions per run; `setup_s` is their median.
inline constexpr int kSweepSetupRepeats = 3;  ///< engine-sweep (~3 s each)
inline constexpr int kColdSetupRepeats = 5;   ///< serve-cold (~1 s each)
/// serve-cold's set-up prefill: cold batches per connection after server
/// start, enough that one set-up is about a second of closed-loop work.
inline constexpr int kColdSetupBatches = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string work_dir;   ///< working directory for plan stores
  std::string span_path;  ///< traced run: where the span file goes
};

/// Failure accounting: every spec attempted is counted, every failed check
/// once, and the first few reasons are kept for the report.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void fail(const std::string& why) {
    ++failed;
    if (reasons.size() < 8) reasons.push_back(why);
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& r : other.reasons) {
      if (reasons.size() < 8) reasons.push_back(r);
    }
  }
};

/// What one measured window produced: a latency per request, the specs
/// that completed and passed their checks, and the window's wall time.
struct Window {
  std::vector<double> latency_ms;
  std::uint64_t specs_ok = 0;
  double wall_s = 0;
  Tally tally;

  void merge(const Window& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    specs_ok += other.specs_ok;
    tally.merge(other.tally);
  }
};

/// The highest percentile of the ladder p50 / p90 / p95 / p99 / p99.9 that
/// has at least ten samples beyond it (choosing-metrics guide, section 1).
struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t samples = 0;
};

struct EndToEnd {
  double specs_per_s = 0;
  double latency_p50_ms = 0;
  Tail latency_tail;
  double setup_s = 0;
  std::size_t setups = 0;
  double peak_rss_mib = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  /// Adds another window's checks (the traced half's) to this summary.
  void absorb(const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
    reasons.insert(reasons.end(), t.reasons.begin(), t.reasons.end());
  }

  double failed_frac() const {
    return attempted ? static_cast<double>(failed) / attempted : 1.0;
  }
};

/// A deterministic 64-bit mix of the workload seed and a stream tag
/// (splitmix64's finalizer), so every input stream (graph seeds, sources,
/// batch draws) is a pure function of `--seed`.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v);
double percentile(std::vector<double> v, double pct);
Tail tail_latency(const std::vector<double>& latency_ms);
double peak_rss_mib();

/// Returns freed heap pages to the OS.  Called between set-up repetitions:
/// without it the allocator keeps each torn-down repetition's pages, and
/// peak_rss_mib would grow with the repetition count instead of measuring
/// one set-up's footprint.
void release_freed_memory();
EndToEnd summarize(const Window& w, const std::vector<double>& setup_s);

/// One workload run's outputs.  `layers` and `traced` are filled only by the
/// traced run: the per-layer metrics, and the traced half's end-to-end
/// numbers (whose difference from `e2e` is the tracing overhead).
struct RunOutput {
  EndToEnd e2e;
  EndToEnd traced;
  std::map<std::string, double> layers;
  /// Per layer, what its time bought ("120 graphs, mean n 5012").
  std::map<std::string, std::string> buys;
  /// The layers NOTES.md's metric map says should lead this workload.
  std::vector<std::string> claimed_leaders;
};

}  // namespace perfbench
