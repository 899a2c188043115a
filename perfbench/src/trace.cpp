#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {
namespace {

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
}

}  // namespace

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
          .count());
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

long Tracer::write(const std::string& path, std::size_t max_spans) const {
  auto spans = this->spans();
  if (spans.size() > max_spans) spans.resize(max_spans);
  std::ofstream out(path);
  if (!out) return -1;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << s.layer() << "\",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.thread << ",\"ts\":" << s.start_ns / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return out ? static_cast<long>(spans.size()) : -1;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent,
                       std::uint64_t request)
    : tracer_(tracer) {
  span_.name = std::move(name);
  span_.id = tracer.next_id();
  span_.parent = parent;
  span_.request = request;
  span_.thread = thread_tag();
  span_.start_ns = tracer.now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = tracer_.now_ns();
  tracer_.record(std::move(span_));
}

std::map<std::string, SpanStats> span_stats(const std::vector<Span>& spans) {
  std::map<std::string, SpanStats> out;
  for (const Span& s : spans) {
    auto& st = out[s.name];
    ++st.count;
    st.total_ms += s.ms();
  }
  return out;
}

std::vector<LayerTime> layer_self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  const auto contains = [](const Span& outer, const Span& inner) {
    return outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns;
  };
  // Per span: the intervals of the spans nested in it (their union is
  // subtracted, so parallel children count once), and the scaled time of
  // children attributed to it from outside its interval.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      nested;
  std::unordered_map<std::uint64_t, double> outside_ms;
  for (const Span& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    if (contains(*parent->second, s)) {
      nested[s.parent].emplace_back(s.start_ns, s.end_ns);
      continue;
    }
    outside_ms[s.parent] += s.ms() * parent->second->overlap;
    for (auto up = by_id.find(parent->second->parent); up != by_id.end();
         up = by_id.find(up->second->parent)) {
      if (contains(*up->second, s)) {
        nested[up->first].emplace_back(s.start_ns, s.end_ns);
        break;
      }
    }
  }
  std::map<std::string, LayerTime> by_layer;
  for (const Span& s : spans) {
    auto& row = by_layer[s.layer()];
    row.layer = s.layer();
    double covered_ns = 0;
    if (auto it = nested.find(s.id); it != nested.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t lo = iv[0].first, hi = iv[0].second;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          covered_ns += static_cast<double>(hi - lo);
          lo = a;
        }
        hi = std::max(hi, b);
      }
      covered_ns += static_cast<double>(hi - lo);
    }
    const auto out = outside_ms.find(s.id);
    row.self_ms += s.ms() - covered_ns / 1e6 -
                   (out == outside_ms.end() ? 0 : out->second);
    ++row.spans;
  }
  std::vector<LayerTime> out;
  for (auto& [_, row] : by_layer) {
    row.self_ms = std::max(0.0, row.self_ms);
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

}  // namespace perfbench
