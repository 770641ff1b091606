#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace swbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ Rng

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : s_(seed * 0x9e3779b97f4a7c15ULL ^ (stream + 0x632be59bd9b4e019ULL)) {
  next();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double seconds_per_call(int rounds, int calls,
                        const std::function<void()>& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = now_s();
    for (int c = 0; c < calls; ++c) fn();
    per_call.push_back((now_s() - t0) / calls);
  }
  return quantile(per_call, 0.5);
}

// ---------------------------------------------------------------- spans

void SpanLog::add(Span s) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() < kCap) {
    spans_.push_back(std::move(s));
  } else {
    ++dropped_;
  }
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::size_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool SpanLog::write_chrome_json(const std::string& path, double t_origin,
                                std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open '" + path + "'";
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,",
                  s.tid, (s.t0 - t_origin) * 1e6, (s.t1 - s.t0) * 1e6);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\"," << buf
        << "\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) {
    *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

// ------------------------------------------------------------ placement

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

std::vector<int> pick_cpus(const std::vector<int>& allowed, std::size_t n) {
  std::vector<int> picked;
  for (auto it = allowed.rbegin(); it != allowed.rend() && picked.size() < n;
       ++it) {
    if (*it != 0) picked.push_back(*it);
  }
  if (picked.size() < n &&
      std::find(allowed.begin(), allowed.end(), 0) != allowed.end()) {
    picked.push_back(0);
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

bool pin_process(const std::vector<int>& cpus, std::string* error) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    *error = "sched_setaffinity failed";
    return false;
  }
  return true;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string s;
  for (const int c : cpus) {
    if (!s.empty()) s += ',';
    s += std::to_string(c);
  }
  return s;
}

namespace {

// busy = user + nice + system + irq + softirq + steal (guest time is
// already inside user); steal is the 8th field.
bool parse_cpu_line(const std::string& line, std::uint64_t* busy,
                    std::uint64_t* steal) {
  std::istringstream is(line);
  std::string label;
  std::uint64_t f[8] = {};
  is >> label;
  for (auto& x : f) {
    if (!(is >> x)) return false;
  }
  *busy = f[0] + f[1] + f[2] + f[5] + f[6] + f[7];
  *steal = f[7];
  return true;
}

}  // namespace

HostSample sample_host(const std::vector<int>& cpus) {
  HostSample s;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0) break;
    std::uint64_t busy = 0, steal = 0;
    if (!parse_cpu_line(line, &busy, &steal)) continue;
    if (line.rfind("cpu ", 0) == 0) {
      s.host_busy = busy;
      s.host_steal = steal;
      continue;
    }
    const int cpu = std::atoi(line.c_str() + 3);
    if (std::find(cpus.begin(), cpus.end(), cpu) != cpus.end()) {
      s.pinned_busy += busy;
      s.pinned_steal += steal;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.nivcsw = ru.ru_nivcsw;
  s.nvcsw = ru.ru_nvcsw;
  return s;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

// -------------------------------------------------------------- results

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double Metrics::get(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

double Phases::unattributed() const {
  double sum = 0.0;
  for (const auto& p : parts) sum += p.second;
  return wall - sum;
}

void Phases::print() const {
  std::printf("phases (%s): wall %.6f\n", basis.c_str(), wall);
  double sum = 0.0;
  for (const auto& [name, v] : parts) {
    std::printf("  %-36s %12.6f  %6.2f%%\n", name.c_str(), v,
                wall > 0 ? 100.0 * v / wall : 0.0);
    sum += v;
  }
  const double rest = unattributed();
  std::printf("  %-36s %12.6f  %6.2f%%\n", "unattributed", rest,
              wall > 0 ? 100.0 * rest / wall : 0.0);
  std::printf("  %-36s %12.6f  (phases + unattributed = wall)\n", "sum",
              sum + rest);
}

void ServeSplit::add(double call_s, const serve::Response::Timing& t) {
  const double total = std::max(0.0, t.total_s);
  const double q = std::max(0.0, t.queue_s);
  const double e = std::max(0.0, t.engine_s);
  const double r = std::max(0.0, t.render_s);
  transport += call_s - total;
  session += total - q - e - r;
  queue += q;
  engine += e;
  render += r;
  ++n;
}

void ServeSplit::set_metrics(Metrics* m) const {
  const double d = n ? static_cast<double>(n) : 1.0;
  m->set("serve.transport_ms", transport / d * 1e3, "ms");
  m->set("serve.session_ms", session / d * 1e3, "ms");
  m->set("serve.queue_ms", queue / d * 1e3, "ms");
  m->set("serve.engine_ms", engine / d * 1e3, "ms");
  m->set("serve.render_ms", render / d * 1e3, "ms");
}

void set_engine_counts(const engine::EngineStats& before,
                       const engine::EngineStats& after, double requests,
                       Metrics* m) {
  const double n = requests > 0 ? requests : 1.0;
  m->set("engine.jobs_per_request",
         static_cast<double>(after.jobs_executed - before.jobs_executed) / n,
         "count");
  m->set("engine.evictions_per_request",
         static_cast<double>(after.cache.evictions - before.cache.evictions) /
             n,
         "count");
  const double hits =
      static_cast<double>(after.cache.hits - before.cache.hits);
  const double lookups =
      hits + static_cast<double>(after.cache.misses - before.cache.misses);
  m->set("engine.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
         "ratio");
}

void set_end_to_end(const Measured& m, Result* r) {
  Metrics& out = r->metrics;
  out.set("setup_s", quantile(m.setup_s, 0.5), "s");
  out.set("p50_ms", quantile(m.latency, 0.5) * 1e3, "ms");
  out.set("p90_ms", quantile(m.latency, 0.9) * 1e3, "ms");
  out.set("rps", m.wall > 0 ? static_cast<double>(m.latency.size()) / m.wall
                            : 0.0,
          "1/s");
  out.set("ok_frac",
          r->attempted ? static_cast<double>(r->attempted - r->failed) /
                             static_cast<double>(r->attempted)
                       : 0.0,
          "ratio");
  out.set("peak_rss_mb", m.peak_rss, "MB");
}

void print_diagnostics(const Measured& m, const HostSample& h0,
                       const HostSample& h1) {
  std::printf("measured: %zu requests in %.3f s; p50 %.4f ms, p90 %.4f ms, "
              "p99 %.4f ms, p99.9 %.4f ms (p99 and p99.9 for diagnosis "
              "only)\n",
              m.latency.size(), m.wall, quantile(m.latency, 0.5) * 1e3,
              quantile(m.latency, 0.9) * 1e3, quantile(m.latency, 0.99) * 1e3,
              quantile(m.latency, 0.999) * 1e3);
  std::printf("setup_s samples:");
  for (const double s : m.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  if (!m.finish.empty()) {
    // Requests completed in each whole second of the measured phase.
    std::vector<double> rate(static_cast<std::size_t>(m.wall));
    for (const double f : m.finish) {
      if (f < static_cast<double>(rate.size())) {
        rate[static_cast<std::size_t>(f)] += 1.0;
      }
    }
    std::printf("per-second rate: min %.0f p25 %.0f median %.0f p75 %.0f "
                "max %.0f over %zu s (the host's speed swings)\n",
                quantile(rate, 0.0), quantile(rate, 0.25),
                quantile(rate, 0.5), quantile(rate, 0.75),
                quantile(rate, 1.0), rate.size());
  }
  const auto share = [](std::uint64_t steal0, std::uint64_t steal1,
                        std::uint64_t busy0, std::uint64_t busy1) {
    const double busy = static_cast<double>(busy1 - busy0);
    return busy > 0 ? 100.0 * static_cast<double>(steal1 - steal0) / busy
                    : 0.0;
  };
  std::printf("env: steal_pct_of_busy pinned=%.2f host=%.2f "
              "involuntary_ctx_switches=%ld voluntary_ctx_switches=%ld\n",
              share(h0.pinned_steal, h1.pinned_steal, h0.pinned_busy,
                    h1.pinned_busy),
              share(h0.host_steal, h1.host_steal, h0.host_busy, h1.host_busy),
              h1.nivcsw - h0.nivcsw, h1.nvcsw - h0.nvcsw);
}

double trace_overhead_pct(const std::vector<double>& plain,
                          const std::vector<double>& traced) {
  const double p50 = quantile(plain, 0.5);
  return p50 > 0 ? 100.0 * (quantile(traced, 0.5) - p50) / p50 : 0.0;
}

void write_trace(const SpanLog& spans, const std::string& path,
                 double t_origin) {
  if (path.empty()) return;
  std::string error;
  if (!spans.write_chrome_json(path, t_origin, &error)) {
    std::fprintf(stderr, "swbench: %s\n", error.c_str());
    return;
  }
  std::printf("trace: %zu spans (%zu past the cap) -> %s\n", spans.size(),
              spans.dropped(), path.c_str());
}

}  // namespace swbench
