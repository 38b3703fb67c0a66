#include "common.h"

#include <sched.h>

#include <atomic>
#include <thread>
#include <cmath>
#include <cstdlib>

#include "snode/streaming_build.h"

namespace pb {

namespace {
const Clock::time_point kOrigin = Clock::now();
}  // namespace

double ToSeconds(Clock::time_point t) { return SecondsBetween(kOrigin, t); }
double NowSeconds() { return ToSeconds(Clock::now()); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

void PinToCpu(int i) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  if (i < 0) {
    for (int c = 0; c < n; ++c) CPU_SET(c, &set);
  } else {
    CPU_SET(i % n, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

void LogPhase(const std::string& phase) {
  static double last = 0;
  double now = NowSeconds();
  std::fprintf(stderr, "[%7.2fs] %-14s %7.2fs\n", now, phase.c_str(),
               now - last);
  last = now;
}

double PeakRssMb() {
  return wg::CurrentPeakRssBytes() / (1024.0 * 1024.0);
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

void SpanLog::Add(SpanRecord record) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

wg::Status SpanLog::WriteTraceEvents(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return wg::Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"req\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.cat.c_str(), s.tid,
                 s.start_s * 1e6, s.dur_s * 1e6,
                 static_cast<unsigned long long>(s.req));
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) return wg::Status::IOError("cannot close " + path);
  return wg::Status::OK();
}

Span::~Span() {
  SpanLog& log = SpanLog::Get();
  if (!log.enabled()) return;
  log.Add({name_, cat_, req_, ThreadIndex(), start_, NowSeconds() - start_});
}

namespace {
thread_local double sync_started = 0;
std::atomic<uint64_t> sync_ns{0};
}  // namespace

wg::Env::SyncAction SyncTimer::OnSync(const std::string&, wg::Status*) {
  sync_started = NowSeconds();
  return SyncAction::kSync;
}
void SyncTimer::DidSync(const std::string&) {
  sync_ns += static_cast<uint64_t>((NowSeconds() - sync_started) * 1e9);
}
wg::Env::SyncAction SyncTimer::OnSyncDir(const std::string& path,
                                         wg::Status* error) {
  return OnSync(path, error);
}
void SyncTimer::DidSyncDir(const std::string& path) { DidSync(path); }
double SyncTimer::SyncSeconds() const { return sync_ns.load() / 1e9; }

SyncTimer& GlobalSyncTimer() {
  static SyncTimer timer;
  return timer;
}

void Outcome::Fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "failed: %s\n", what.c_str());
}

void Outcome::Wrong(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "WRONG: %s\n", what.c_str());
}

bool Outcome::Check(const wg::Status& status, const std::string& what) {
  ++attempted;
  if (status.ok()) return true;
  Fail(what + ": " + status.ToString());
  return false;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

}  // namespace pb
