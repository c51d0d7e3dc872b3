// Measurement plumbing for the end-to-end benchmark: latency samples and
// the in-memory span tracer used by traced runs.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each layer's public functions. A traced operation is one Trace: a
// root span plus child spans, all sharing a request id. When the root
// closes, the tracer folds every span into per-name aggregates (count,
// duration, self time = duration minus the part its children cover) and
// keeps the raw spans, up to a fixed cap so memory stays bounded, for the
// trace file written at exit.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Measured values with nearest-rank quantiles. Past `kKept` values it
/// keeps a uniform random subset (reservoir sampling), so memory, and with
/// it the process's peak RSS, does not grow with throughput.
class Samples {
 public:
  void add(double value) {
    ++seen_;
    max_ = std::max(max_, value);
    if (values_.size() < kKept) {
      values_.push_back(value);
    } else if (const std::uint64_t slot = rng_() % seen_; slot < kKept) {
      values_[slot] = value;
    }
  }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    seen_ += other.seen_;
    max_ = std::max(max_, other.max_);
  }
  /// Values added, kept or not.
  std::uint64_t count() const { return seen_; }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                     sorted.end());
    return sorted[rank];
  }
  double max() const { return max_; }

 private:
  static constexpr std::size_t kKept = 1 << 14;
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  double max_ = 0;
  std::minstd_rand rng_{1};
};

/// One quantity over a measured window cut into equal slices. A run's
/// figure is the median over slices of the per-slice statistic, which a
/// burst of host noise (CPU steal on a shared machine) shorter than half
/// the window cannot move; the pooled quantiles remain for tails.
class Series {
 public:
  Series(std::uint64_t from_ns, std::uint64_t to_ns, std::size_t slices)
      : from_(from_ns), span_(std::max<std::uint64_t>(to_ns - from_ns, 1)),
        slices_(std::max<std::size_t>(slices, 1)), weight_(slices_.size()) {}

  /// Records `value` for an operation that started at `at_ns` and carried
  /// `weight` units of work (requests in a batch, say).
  void add(std::uint64_t at_ns, double value, std::uint64_t weight = 1) {
    const std::size_t i = slice_of(at_ns);
    slices_[i].add(value);
    weight_[i] += weight;
  }
  void merge(const Series& other) {
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      slices_[i].merge(other.slices_[i]);
      weight_[i] += other.weight_[i];
    }
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const Samples& s : slices_) n += s.count();
    return n;
  }
  /// Pooled over the whole window.
  double quantile(double q) const {
    Samples all;
    for (const Samples& s : slices_) all.merge(s);
    return all.quantile(q);
  }
  /// Each non-empty slice's q-quantile, in time order.
  std::vector<double> per_slice(double q) const {
    std::vector<double> out;
    for (const Samples& s : slices_)
      if (s.count() > 0) out.push_back(s.quantile(q));
    return out;
  }
  /// Median over slices of each slice's q-quantile.
  double slice_median(double q) const { return median(per_slice(q)); }
  /// Median over slices of weight per second.
  double rate_median() const {
    const double slice_s =
        static_cast<double>(span_) / static_cast<double>(slices_.size()) / 1e9;
    std::vector<double> rates;
    for (std::uint64_t w : weight_)
      rates.push_back(static_cast<double>(w) / slice_s);
    return median(rates);
  }

 private:
  std::size_t slice_of(std::uint64_t at_ns) const {
    const std::uint64_t offset = at_ns > from_ ? at_ns - from_ : 0;
    return std::min<std::size_t>(
        static_cast<std::size_t>(offset * slices_.size() / span_),
        slices_.size() - 1);
  }
  static double median(std::vector<double> values) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
  }

  std::uint64_t from_;
  std::uint64_t span_;
  std::vector<Samples> slices_;
  std::vector<std::uint64_t> weight_;
};

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index within its trace; -1 for the root
  std::uint64_t request = 0;
};

/// One traced operation, built by a single thread. Span 0 is the root.
class Trace {
 public:
  Trace(const char* root, std::uint64_t request, std::uint64_t start)
      : request_(request) {
    spans_.push_back({root, start, start, -1, request});
  }
  /// Records a finished child span of the root.
  void span(const char* name, std::uint64_t start, std::uint64_t end) {
    spans_.push_back({name, start, end, 0, request_});
  }
  void finish(std::uint64_t end) { spans_[0].end_ns = end; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t request_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  struct Layer {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
    double mean_ns() const {
      return count ? total_ns / static_cast<double>(count) : 0;
    }
    double mean_self_ns() const {
      return count ? self_ns / static_cast<double>(count) : 0;
    }
  };

  void submit(const Trace& trace) {
    const auto& spans = trace.spans();
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
      self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
                covered_by_children(spans, static_cast<int>(i));
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Layer& layer = layers_[spans[i].name];
      const auto duration =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      ++layer.count;
      layer.total_ns += duration;
      layer.self_ns += self[i];
      if (kept_.size() < kMaxKeptSpans) {
        kept_.push_back(spans[i]);
      } else {
        ++dropped_;
      }
    }
  }

  const std::map<std::string, Layer>& layers() const { return layers_; }
  const Layer* layer(const std::string& name) const {
    const auto it = layers_.find(name);
    return it == layers_.end() ? nullptr : &it->second;
  }

  /// Writes the kept spans and the per-layer self-time table as JSON.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"dropped_spans\": " << dropped_ << ", \"layers\": {";
    bool first = true;
    for (const auto& [name, layer] : layers_) {
      out << (first ? "" : ", ") << '"' << name << "\": {\"count\": "
          << layer.count << ", \"mean_ns\": " << layer.mean_ns()
          << ", \"mean_self_ns\": " << layer.mean_self_ns() << '}';
      first = false;
    }
    out << "},\n\"spans\": [\n";
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Span& s = kept_[i];
      out << (i ? ",\n" : "") << "[\"" << s.name << "\", " << s.start_ns
          << ", " << s.end_ns << ", " << s.parent << ", " << s.request << ']';
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static constexpr std::size_t kMaxKeptSpans = 50000;

  /// Length of the union of `parent`'s child intervals, clipped to it.
  static double covered_by_children(const std::vector<Span>& spans,
                                    int parent) {
    const Span& p = spans[static_cast<std::size_t>(parent)];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
    for (const Span& s : spans)
      if (s.parent == parent)
        children.emplace_back(std::max(s.start_ns, p.start_ns),
                              std::min(s.end_ns, p.end_ns));
    std::sort(children.begin(), children.end());
    double covered = 0;
    std::uint64_t reach = p.start_ns;
    for (const auto& [start, end] : children) {
      const std::uint64_t from = std::max(start, reach);
      if (end > from) {
        covered += static_cast<double>(end - from);
        reach = end;
      }
    }
    return covered;
  }

  std::mutex mutex_;
  std::map<std::string, Layer> layers_;
  std::vector<Span> kept_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
