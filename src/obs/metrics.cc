#include "obs/metrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/status.h"

namespace wg::obs {

uint64_t NextInstanceId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace internal {

void HistogramCell::Record(double value) {
  size_t bucket = 0;
  if (value >= 1.0) {
    int exp = 0;
    double mantissa = std::frexp(value, &exp);
    bucket = static_cast<size_t>(exp - 1);  // floor(log2(value))
    // A value exactly at a bucket's upper bound 2^k counts in that lower
    // bucket, keeping the Prometheus le="2^k" series' inclusive (<=)
    // contract.
    if (mantissa == 0.5 && bucket > 0) --bucket;
    if (bucket >= kBuckets) bucket = kBuckets - 1;
  }
  buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  double cur = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(cur, cur + value,
                                    std::memory_order_relaxed)) {
  }
}

double HistogramCell::Quantile(double q) const {
  std::array<uint64_t, kBuckets> snap;
  uint64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    snap[i] = buckets[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  if (total == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += snap[i];
    if (seen > rank) {
      return std::ldexp(1.0, static_cast<int>(i) + 1);
    }
  }
  return std::ldexp(1.0, static_cast<int>(kBuckets));
}

}  // namespace internal

void Counter::Bind(MetricRegistry& registry, const std::string& name,
                   const Labels& labels, const std::string& help) {
  Counter bound = registry.GetCounter(name, labels, help);
  bound.cell_->value.fetch_add(value(), std::memory_order_relaxed);
  cell_ = std::move(bound.cell_);
}

void Gauge::Bind(MetricRegistry& registry, const std::string& name,
                 const Labels& labels, const std::string& help) {
  Gauge bound = registry.GetGauge(name, labels, help);
  double carried = value();
  if (carried != 0) bound.Add(carried);
  cell_ = std::move(bound.cell_);
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

namespace {

// Serialized label set, doubling as the series key: `k="v",k2="v2"`.
// Values stay raw here -- this is the identity key, not exposition text.
std::string LabelString(const Labels& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out.push_back('"');
  }
  return out;
}

// Prometheus text-format label-value escaping: backslash, double-quote,
// and newline are the three characters the exposition grammar reserves
// inside quoted label values. Anything else (including other control
// characters) passes through; a label value is bytes to Prometheus.
void AppendPromEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      default: out->push_back(c);
    }
  }
}

// Exposition form of a label set: `k="escaped_v",k2="escaped_v2"`.
// Distinct from LabelString so a value containing `"` or `\n` -- a file
// path with a newline-smuggling name, say -- cannot break the line
// grammar or forge extra series.
std::string PromLabelString(const Labels& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].first;
    out += "=\"";
    AppendPromEscaped(labels[i].second, &out);
    out.push_back('"');
  }
  return out;
}

// HELP text escaping: the format reserves backslash and newline there
// (double-quotes are fine outside label values).
void AppendPromHelp(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      default: out->push_back(c);
    }
  }
}

void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

// Prometheus values render integers exactly and doubles tersely.
std::string NumberString(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

}  // namespace

MetricRegistry::Series& MetricRegistry::GetSeries(const std::string& name,
                                                  const Labels& labels,
                                                  const std::string& help,
                                                  Kind kind) {
  // Caller holds mu_.
  Family* family = nullptr;
  for (auto& [fname, f] : families_) {
    if (fname == name) {
      family = &f;
      break;
    }
  }
  if (family == nullptr) {
    families_.emplace_back(name, Family{});
    family = &families_.back().second;
    family->kind = kind;
    family->help = help;
  }
  WG_CHECK(family->kind == kind);  // one kind per metric name
  if (family->help.empty() && !help.empty()) family->help = help;
  std::string key = LabelString(labels);
  for (auto& [skey, series] : family->series) {
    if (skey == key) return series;
  }
  family->series.emplace_back(std::move(key), Series{});
  Series& series = family->series.back().second;
  series.labels = labels;
  switch (kind) {
    case Kind::kCounter:
      series.counter = std::make_shared<internal::CounterCell>();
      break;
    case Kind::kGauge:
      series.gauge = std::make_shared<internal::GaugeCell>();
      break;
    case Kind::kHistogram:
      series.histogram = std::make_shared<internal::HistogramCell>();
      break;
  }
  return series;
}

Counter MetricRegistry::GetCounter(const std::string& name,
                                   const Labels& labels,
                                   const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return Counter(GetSeries(name, labels, help, Kind::kCounter).counter);
}

Gauge MetricRegistry::GetGauge(const std::string& name, const Labels& labels,
                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return Gauge(GetSeries(name, labels, help, Kind::kGauge).gauge);
}

Histogram MetricRegistry::GetHistogram(const std::string& name,
                                       const Labels& labels,
                                       const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return Histogram(GetSeries(name, labels, help, Kind::kHistogram).histogram);
}

size_t MetricRegistry::num_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [name, family] : families_) n += family.series.size();
  return n;
}

void MetricRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  families_.clear();
}

std::string MetricRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  // A sample's " value\n" tail, appended piecewise (a chain of string
  // temporaries here trips GCC 12's -Wrestrict at -O3).
  auto append_value = [&out](double value) {
    out += ' ';
    out += NumberString(value);
    out += '\n';
  };
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " ";
      AppendPromHelp(family.help, &out);
      out += "\n";
    }
    out += "# TYPE " + name + " ";
    switch (family.kind) {
      case Kind::kCounter: out += "counter\n"; break;
      case Kind::kGauge: out += "gauge\n"; break;
      case Kind::kHistogram: out += "histogram\n"; break;
    }
    for (const auto& [raw_key, series] : family.series) {
      (void)raw_key;
      // Escaped for the exposition grammar; raw_key stays the identity.
      const std::string key = PromLabelString(series.labels);
      switch (family.kind) {
        case Kind::kCounter:
          out += name;
          if (!key.empty()) out += "{" + key + "}";
          append_value(static_cast<double>(
              series.counter->value.load(std::memory_order_relaxed)));
          break;
        case Kind::kGauge:
          out += name;
          if (!key.empty()) out += "{" + key + "}";
          append_value(series.gauge->value.load(std::memory_order_relaxed));
          break;
        case Kind::kHistogram: {
          const internal::HistogramCell& h = *series.histogram;
          uint64_t cumulative = 0;
          size_t last = 0;
          std::array<uint64_t, internal::HistogramCell::kBuckets> snap;
          for (size_t i = 0; i < snap.size(); ++i) {
            snap[i] = h.buckets[i].load(std::memory_order_relaxed);
            if (snap[i] != 0) last = i;
          }
          for (size_t i = 0; i <= last; ++i) {
            cumulative += snap[i];
            out += name + "_bucket{" + key + (key.empty() ? "" : ",") +
                   "le=\"" + NumberString(std::ldexp(1.0, i + 1)) + "\"} " +
                   NumberString(static_cast<double>(cumulative)) + "\n";
          }
          uint64_t count = h.count.load(std::memory_order_relaxed);
          out += name + "_bucket{" + key + (key.empty() ? "" : ",") +
                 "le=\"+Inf\"} " + NumberString(static_cast<double>(count)) +
                 "\n";
          out += name + "_sum";
          if (!key.empty()) out += "{" + key + "}";
          append_value(h.sum.load(std::memory_order_relaxed));
          out += name + "_count";
          if (!key.empty()) out += "{" + key + "}";
          append_value(static_cast<double>(count));
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricRegistry::JsonText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"metrics\":[";
  bool first_family = true;
  for (const auto& [name, family] : families_) {
    if (!first_family) out += ",";
    first_family = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(name, &out);
    out += "\",\"type\":\"";
    switch (family.kind) {
      case Kind::kCounter: out += "counter"; break;
      case Kind::kGauge: out += "gauge"; break;
      case Kind::kHistogram: out += "histogram"; break;
    }
    out += "\",\"help\":\"";
    AppendJsonEscaped(family.help, &out);
    out += "\",\"series\":[";
    bool first_series = true;
    for (const auto& [key, series] : family.series) {
      if (!first_series) out += ",";
      first_series = false;
      out += "{\"labels\":{";
      for (size_t i = 0; i < series.labels.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"";
        AppendJsonEscaped(series.labels[i].first, &out);
        out += "\":\"";
        AppendJsonEscaped(series.labels[i].second, &out);
        out += "\"";
      }
      out += "},";
      switch (family.kind) {
        case Kind::kCounter:
          out += "\"value\":" +
                 NumberString(static_cast<double>(series.counter->value.load(
                     std::memory_order_relaxed)));
          break;
        case Kind::kGauge:
          out += "\"value\":" +
                 NumberString(
                     series.gauge->value.load(std::memory_order_relaxed));
          break;
        case Kind::kHistogram: {
          const internal::HistogramCell& h = *series.histogram;
          out += "\"count\":" +
                 NumberString(static_cast<double>(
                     h.count.load(std::memory_order_relaxed))) +
                 ",\"sum\":" +
                 NumberString(h.sum.load(std::memory_order_relaxed)) +
                 ",\"p50\":" + NumberString(h.Quantile(0.5)) +
                 ",\"p99\":" + NumberString(h.Quantile(0.99)) +
                 ",\"buckets\":[";
          size_t last = 0;
          std::array<uint64_t, internal::HistogramCell::kBuckets> snap;
          for (size_t i = 0; i < snap.size(); ++i) {
            snap[i] = h.buckets[i].load(std::memory_order_relaxed);
            if (snap[i] != 0) last = i;
          }
          for (size_t i = 0; i <= last; ++i) {
            if (i > 0) out += ",";
            out += "{\"le\":" + NumberString(std::ldexp(1.0, i + 1)) +
                   ",\"n\":" + NumberString(static_cast<double>(snap[i])) +
                   "}";
          }
          out += "]";
          uint64_t exemplar =
              h.exemplar_trace.load(std::memory_order_relaxed);
          if (exemplar != 0) {
            // Slow-observation exemplar: the trace id to look up in
            // /tracez. Torn value/trace pairing is acceptable (see cell).
            out += ",\"exemplar\":{\"trace\":" +
                   NumberString(static_cast<double>(exemplar)) +
                   ",\"value\":" +
                   NumberString(h.exemplar_value.load(
                       std::memory_order_relaxed)) +
                   "}";
          }
          break;
        }
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace wg::obs
