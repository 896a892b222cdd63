// Metrics registry: named counters, gauges, and log-bucketed histograms,
// keyed by {metric name, label set}. The registry owns every instrument
// and hands out stable pointers, so instrumented code resolves a metric
// once (a map lookup) and then updates it with plain arithmetic — cheap
// enough to live on simulated hot paths. Counts the simulator keeps in
// its own stats are published in bulk instead, from CounterRow tables.
//
// Histograms use log-linear buckets (one power of two split into
// kSubBuckets linear sub-buckets), bounding the relative quantile error
// at 1/kSubBuckets while keeping memory constant. Exact count, sum, min
// and max are tracked on the side.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace dtio::obs {

class JsonWriter;

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  void set(std::uint64_t v) noexcept { value_ = v; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

class Histogram {
 public:
  static constexpr int kSubBuckets = 8;  ///< per power of two
  static constexpr int kExponents = 63;
  // 0, 1, then kSubBuckets linear buckets per power of two in [2^1, 2^64).
  static constexpr int kBuckets = 2 + kExponents * kSubBuckets;

  /// Negative values clamp to zero (latencies and sizes are nonnegative).
  void record(std::int64_t value) noexcept;

  /// Bucket-wise sum; both histograms share the fixed layout.
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] std::int64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::int64_t max() const noexcept { return max_; }

  /// Quantile estimate for p in [0, 100], e.g. percentile(99). Returns the
  /// representative value of the bucket containing the rank, clamped to
  /// the exact [min, max] envelope; zero when empty.
  [[nodiscard]] double percentile(double p) const noexcept;

 private:
  static int bucket_index(std::int64_t value) noexcept;
  static double bucket_mid(int index) noexcept;

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Builds a "k=v" / "k1=v1,k2=v2" label string.
[[nodiscard]] std::string label(std::string_view key, std::string_view value);
[[nodiscard]] std::string label(std::string_view key, std::int64_t value);
[[nodiscard]] std::string label(std::string_view k1, std::string_view v1,
                                std::string_view k2, std::int64_t v2);

class MetricsRegistry {
 public:
  /// Lookup-or-create; the returned reference is stable for the registry's
  /// lifetime. The same (name, labels) pair always yields the same object.
  Counter& counter(std::string_view name, std::string_view labels = "");
  Gauge& gauge(std::string_view name, std::string_view labels = "");
  Histogram& histogram(std::string_view name, std::string_view labels = "");

  /// Bucket-wise merge of every histogram named `name`, across all label
  /// sets — e.g. one latency distribution over all ops and nodes.
  [[nodiscard]] Histogram merged_histogram(std::string_view name) const;

  /// Same, restricted to label sets containing `label_contains` as a
  /// substring — e.g. ("client_op_latency_ns", "op=datatype_read") for one
  /// op's distribution across all nodes.
  [[nodiscard]] Histogram merged_histogram(std::string_view name,
                                           std::string_view label_contains) const;

  /// Sum of every counter named `name` across label sets.
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// {"counters":[...],"gauges":[...],"histograms":[...]} with names,
  /// labels, and (for histograms) count/mean/p50/p90/p99/max.
  void write_json(JsonWriter& writer) const;
  [[nodiscard]] std::string to_json() const;

 private:
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  // std::map: deterministic export order, stable addresses via unique_ptr.
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

/// One row of an owner's counter table: the registry counter `name` is
/// published from the stats field `member`. `labels` is "k=v,..." and may
/// end in a bare key that takes the owner's index: "reason=depth,node"
/// publishes as "reason=depth,node=3".
template <class Stats>
struct CounterRow {
  const char* name;
  const char* labels;
  std::uint64_t Stats::*member;
};

/// Sets (not adds) every row's counter to its field in `stats`, so
/// publishing twice is harmless. `index` < 0 publishes labels verbatim.
template <class Stats>
void publish_counters(MetricsRegistry& registry,
                      std::span<const CounterRow<Stats>> rows,
                      const Stats& stats, int index = -1) {
  for (const CounterRow<Stats>& row : rows) {
    std::string labels = row.labels;
    if (index >= 0) labels.append("=").append(std::to_string(index));
    registry.counter(row.name, labels).set(stats.*row.member);
  }
}

}  // namespace dtio::obs
