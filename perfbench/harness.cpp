#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <new>

#include "harness.hpp"

namespace perfbench {

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int os_threads() {
  // Field 20 of /proc/self/stat; field 2 (comm) may hold spaces, so count
  // from the closing parenthesis.
  std::ifstream in("/proc/self/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::size_t pos = close + 2;
  for (int field = 3; field < 20; ++field) {
    pos = line.find(' ', pos);
    if (pos == std::string::npos) return 0;
    ++pos;
  }
  return std::atoi(line.c_str() + pos);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Ledger::Ledger(std::size_t capacity)
    : capacity_(capacity),
      recs_(static_cast<WedgeRec*>(std::calloc(capacity, sizeof(WedgeRec)))) {
  if (!recs_) throw std::bad_alloc();
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

void Tracer::bind(const void* key, std::int64_t wid) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_[key].push_back(wid);
}

std::vector<std::int64_t> Tracer::resolve(const std::vector<const void*>& keys) {
  std::vector<std::int64_t> wids;
  wids.reserve(keys.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const void* key : keys) {
    auto it = pending_.find(key);
    if (it == pending_.end() || it->second.empty()) {
      wids.push_back(-1);  // not offered by the generator (cannot happen)
      continue;
    }
    wids.push_back(it->second.front());
    it->second.pop_front();
  }
  return wids;
}

void Tracer::record_call(const char* name, std::int64_t start, std::int64_t end,
                         const std::vector<std::int64_t>& wids) {
  const int tid = thread_index();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::int64_t wid : wids) {
    if (wid < 0) continue;
    ledger_[wid].call_start = start;
    ledger_[wid].call_end = end;
  }
  calls_.push_back({name, start, end, tid, static_cast<int>(wids.size())});
}

void Tracer::add_span(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calls_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<nc::codec::WedgeEnvelope> TracingCodec::compress_batch(
    const std::vector<nc::core::Tensor>& wedges) const {
  std::vector<const void*> keys;
  keys.reserve(wedges.size());
  for (const auto& w : wedges) keys.push_back(w.data());
  const auto wids = tracer_.resolve(keys);
  const std::int64_t start = now_ns();
  auto out = inner_.compress_batch(wedges);
  tracer_.record_call("compress_batch", start, now_ns(), wids);
  return out;
}

std::vector<nc::core::Tensor> TracingCodec::decompress_batch(
    const std::vector<nc::codec::WedgeEnvelope>& envelopes) const {
  std::vector<const void*> keys;
  keys.reserve(envelopes.size());
  for (const auto& e : envelopes) keys.push_back(e.payload.data());
  const auto wids = tracer_.resolve(keys);
  const std::int64_t start = now_ns();
  auto out = inner_.decompress_batch(envelopes);
  tracer_.record_call("decompress_batch", start, now_ns(), wids);
  return out;
}

namespace {

/// One trace event; `id` is the wedge id of per-wedge events, -1 for a
/// batch span (whose `wedges` then goes into args).
void write_event(std::FILE* f, bool& first, const char* name, const char* ph,
                 std::int64_t ts_ns, std::int64_t dur_ns, int tid, std::int64_t id,
                 int wedges = 0) {
  std::fprintf(f, "%s\n{\"name\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f",
               first ? "" : ",", name, ph, tid, static_cast<double>(ts_ns) / 1e3);
  first = false;
  if (ph[0] == 'X') std::fprintf(f, ",\"dur\":%.3f", static_cast<double>(dur_ns) / 1e3);
  if (ph[0] == 'b' || ph[0] == 'e') {
    std::fprintf(f, ",\"cat\":\"wedge\",\"id\":%lld", static_cast<long long>(id));
  } else if (id >= 0) {
    std::fprintf(f, ",\"args\":{\"wid\":%lld}", static_cast<long long>(id));
  } else {
    std::fprintf(f, ",\"args\":{\"wedges\":%d}", wedges);
  }
  std::fputc('}', f);
}

}  // namespace

void write_chrome_trace(const std::string& path, const std::string& workload,
                        const char* io_name, const Ledger& ledger,
                        std::int64_t n_wedges,
                        const std::vector<Span>& calls,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"otherData\":{\"workload\":\"%s\"},\"traceEvents\":[",
               workload.c_str());
  bool first = true;
  for (std::int64_t wid = 0; wid < n_wedges; ++wid) {
    const WedgeRec& r = ledger[wid];
    if (r.submit_start == 0) continue;
    write_event(f, first, "submit", "X", r.submit_start,
                r.submit_end - r.submit_start, 0, wid);
    if (r.call_start != 0) {
      write_event(f, first, "queue_wait", "b", r.submit_end, 0, 0, wid);
      write_event(f, first, "queue_wait", "e", std::max(r.submit_end, r.call_start),
                  0, 0, wid);
    }
    if (r.sink_start != 0 && r.call_end != 0) {
      write_event(f, first, "emit_wait", "b", r.call_end, 0, 0, wid);
      write_event(f, first, "emit_wait", "e", r.sink_start, 0, 0, wid);
    }
    if (r.sink_start != 0) {
      write_event(f, first, "sink", "X", r.sink_start, r.sink_end - r.sink_start,
                  static_cast<int>(r.sink_tid), wid);
    }
    if (io_name[0] != '\0' && r.io_start != 0) {
      // Serialize runs inside the sink; parse runs on the generator.
      const int tid = r.io_start >= r.sink_start && r.sink_start != 0
                          ? static_cast<int>(r.sink_tid)
                          : 0;
      write_event(f, first, io_name, "X", r.io_start, r.io_end - r.io_start, tid,
                  wid);
    }
  }
  for (const auto* list : {&calls, &spans}) {
    for (const auto& s : *list) {
      write_event(f, first, s.name, "X", s.start, s.end - s.start, s.tid, -1, s.wedges);
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
