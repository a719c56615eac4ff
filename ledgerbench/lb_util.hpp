// Small helpers shared by the ledgerbench programs: clocks, /proc readers,
// quantiles, and a flat JSON result writer.
#pragma once

#include <pthread.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace lb {

// CLOCK_MONOTONIC seconds: the clock run.py (time.monotonic) and
// net::EventLoop share, so times cross process boundaries unchanged.
inline double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double clock_seconds(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// CPU clock of one thread (any thread of this process).
inline clockid_t thread_clock(pthread_t t) {
  clockid_t id = CLOCK_THREAD_CPUTIME_ID;
  if (pthread_getcpuclockid(t, &id) != 0) return CLOCK_THREAD_CPUTIME_ID;
  return id;
}

// utime + stime of a process in seconds, from /proc/<pid>/stat; -1 if gone.
inline double proc_cpu_seconds(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  const auto rp = s.rfind(')');
  if (rp == std::string::npos) return -1;
  std::istringstream in(s.substr(rp + 2));
  std::string field;
  double ut = 0, st = 0;
  // Fields after the comm: state(3) ... utime(14) stime(15).
  for (int i = 3; i <= 15 && (in >> field); ++i) {
    if (i == 14) ut = std::atof(field.c_str());
    if (i == 15) st = std::atof(field.c_str());
  }
  return (ut + st) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// VmHWM (peak resident set) of a process in MB; 0 if unreadable.
inline double proc_vmhwm_mb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

// Nearest-rank quantile of an unsorted sample (copied); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

// a / b, or 0 when there is nothing to divide by.
inline double per(double a, double b) { return b > 0 ? a / b : 0.0; }

// Flat {"key": number} JSON object, written in insertion order.
class Result {
 public:
  void set(const std::string& key, double v) { kv_.emplace_back(key, v); }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{");
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      std::fprintf(f, "%s\n  \"%s\": %.9g", i == 0 ? "" : ",", kv_[i].first.c_str(),
                   kv_[i].second);
    }
    std::fprintf(f, "\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::pair<std::string, double>> kv_;
};

}  // namespace lb
