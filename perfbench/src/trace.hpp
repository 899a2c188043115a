// Span recording for the traced run.  Spans are taken only in the
// benchmark's own files, around its calls into the library's layers; they
// stay in memory and are written out once, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "graph.hash"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< spans of one request share it; 0 = setup
  std::uint32_t thread = 0;
  /// How many requests' worth of its children's work the span's interval
  /// covers (see layer_self_times).
  double overlap = 1.0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  /// The layer: the name up to its first dot.
  std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  std::uint64_t now_ns() const;
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  void record(Span span);
  std::vector<Span> spans() const;

  /// Writes the first `max_spans` spans as Chrome trace events
  /// (chrome://tracing, Perfetto); parent and request ids ride in each
  /// event's args.  Returns the number written, or -1 on an I/O failure.
  long write(const std::string& path, std::size_t max_spans) const;

 private:
  Clock::time_point t0_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times its scope and records one span when it ends.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent,
             std::uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  void set_overlap(double overlap) { span_.overlap = overlap; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Where a span sits: the tracer, the span that caused it, its request.
struct SpanCtx {
  Tracer* tracer = nullptr;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// Duration statistics of every span with one name.
struct SpanStats {
  std::size_t count = 0;
  double total_ms = 0;
  double mean_ms() const { return count ? total_ms / count : 0; }
};
std::map<std::string, SpanStats> span_stats(const std::vector<Span>& spans);

/// Per layer: self time, a span's duration minus the time its children
/// cover, summed over the layer's spans and clamped at zero per layer (not
/// per span, which would bias noisy estimates upwards).  Children nested in
/// the span's interval subtract the union of their intervals, so parallel
/// children count once.  Two cases make children more than nested
/// intervals:
///  - A child may run outside its parent's interval: the in-process replica
///    of work a server did inside a round trip.  It is attributed to the
///    parent (the round trip) and counts as nested in the nearest ancestor
///    whose interval contains it, so the replica's own wall time is not
///    counted as anyone's self time.
///  - A parent's `overlap` scales what such children subtract: a round trip
///    in a closed loop of C connections overlaps the server-side work of
///    all C requests in flight, so C times its own replica is subtracted.
struct LayerTime {
  std::string layer;
  double self_ms = 0;
  std::size_t spans = 0;
};
std::vector<LayerTime> layer_self_times(const std::vector<Span>& spans);

}  // namespace perfbench
