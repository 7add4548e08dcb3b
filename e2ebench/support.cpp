#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"

namespace e2e {

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "e2ebench: check failed: " << what << "\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) == rank && idx > 0) --idx;
  return v[std::min(idx, v.size() - 1)];
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
thread_local long t_current_span = -1;

int thread_number() {
  static std::mutex m;
  static std::map<std::thread::id, int> ids;
  const std::lock_guard<std::mutex> lock(m);
  const auto [it, inserted] =
      ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()) + 1);
  return it->second;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}
}  // namespace

Tracer::Scope::Scope(Tracer& t, std::string name, std::uint64_t request)
    : tracer_(t), t0_(Clock::now()) {
  if (!tracer_.enabled_) return;
  saved_parent_ = t_current_span;
  index_ = tracer_.open(std::move(name), request, saved_parent_);
  t_current_span = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.close(index_);
  t_current_span = saved_parent_;
}

long Tracer::open(std::string name, std::uint64_t request, long parent) {
  Span s;
  s.name = std::move(name);
  s.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  s.parent = parent;
  s.request = request;
  s.tid = thread_number();
  const std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(std::move(s));
  return static_cast<long>(spans_.size()) - 1;
}

void Tracer::close(long index) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  const std::lock_guard<std::mutex> lock(m_);
  spans_[static_cast<std::size_t>(index)].end_us = now;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(m_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::lock_guard<std::mutex> lock(m_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, ",
                  s.tid, s.start_us, s.end_us - s.start_us);
    os << "{\"name\": ";
    write_json_string(os, s.name);
    os << ", " << buf << "\"args\": {\"id\": " << i
       << ", \"parent\": " << s.parent << ", \"request\": " << s.request
       << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace e2e
