#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared vocabulary of the end-to-end benchmark: timing, exact
// percentiles, the benchmark-side span recorder, the outcome tally and
// the metric map printed as the run's last line.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/webgraph.h"
#include "storage/env.h"
#include "util/status.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Seconds on the steady clock since process start.
double ToSeconds(Clock::time_point t);
double NowSeconds();


// Exact quantile of `v` (sorted copy, linear interpolation between the
// two nearest ranks, as statistics.quantiles' "inclusive" method).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / double(v.size());
}

// Pins the calling thread to hardware thread `i` modulo their number, or
// unpins it for i < 0. Repetitions of single-threaded work rotate over
// the hardware threads, so that their median is not hostage to one
// virtual CPU that a neighbour keeps busy.
void PinToCpu(int i);

// Prints to stderr how long the run has been going and how long `phase`
// took since the previous call.
void LogPhase(const std::string& phase);

// Process peak resident set (VmHWM) in MB.
double PeakRssMb();

// One span of the benchmark's own trace: a call into one layer, timed
// from outside. Spans of one served request share `req`.
struct SpanRecord {
  std::string name;
  std::string cat;
  uint64_t req = 0;
  uint32_t tid = 0;
  double start_s = 0;
  double dur_s = 0;
};

// In-memory span store; written out as Chrome trace-event JSON at exit.
// Recording is a no-op unless enabled (untraced runs pay one branch).
class SpanLog {
 public:
  static SpanLog& Get();
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void Add(SpanRecord record);
  size_t size() const;
  wg::Status WriteTraceEvents(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

uint32_t ThreadIndex();

// RAII span around one public call.
class Span {
 public:
  Span(std::string name, std::string cat, uint64_t req = 0)
      : name_(std::move(name)), cat_(std::move(cat)), req_(req),
        start_(NowSeconds()) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::string cat_;
  uint64_t req_;
  double start_;
};

// Env hooks that time every fsync of a file or directory from outside:
// install it for the run and read SyncSeconds() around a call.
class SyncTimer : public wg::Env {
 public:
  SyncAction OnSync(const std::string& path, wg::Status* error) override;
  void DidSync(const std::string& path) override;
  SyncAction OnSyncDir(const std::string& path, wg::Status* error) override;
  void DidSyncDir(const std::string& path) override;
  // Total seconds spent in completed syncs so far.
  double SyncSeconds() const;
};
SyncTimer& GlobalSyncTimer();

// Operations attempted / failed, and whether every answer that did not
// fail was right.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Fail(const std::string& what);
  void Wrong(const std::string& what);
  // Counts one operation; a non-OK status counts it as failed.
  bool Check(const wg::Status& status, const std::string& what);
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Prints `what` to stderr and exits non-zero: for set-up failures that
// leave nothing to measure.
[[noreturn]] void Die(const std::string& what);

inline void DieIf(const wg::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Unwrap(wg::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

// FNV-1a over a sorted page list: how served answers are compared with
// the reference computed from the generator's graph.
inline uint64_t HashPages(const wg::PageId* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) h = (h ^ data[i]) * 1099511628211ull;
  return h;
}
inline uint64_t HashPages(const std::vector<wg::PageId>& v) {
  return HashPages(v.data(), v.size());
}

}  // namespace pb

#endif  // PERFBENCH_COMMON_H_
