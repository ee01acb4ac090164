#include "harness.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

namespace perfbench {

double now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const auto r = static_cast<std::size_t>(std::max(1.0, rank));
  return n - std::min(r, n);
}

double tail_percentile(std::size_t n) {
  if (n < 20) return 0;
  if (samples_beyond(n, 99.0) >= 10) return 99.0;
  // Rank n - 10 (1-based) leaves exactly ten samples beyond; floor the
  // percentile so rounding can never push the rank past it.
  double p = std::floor(1e4 * static_cast<double>(n - 10) /
                        static_cast<double>(n)) / 100.0;
  while (p > 50.0 && samples_beyond(n, p) < 10) p -= 0.01;
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0;
}

double fitted_drift(const std::vector<double>& rates) {
  if (rates.size() < 2) return 0;
  std::vector<double> x;
  double mean = 0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    x.push_back(static_cast<double>(i));
    mean += rates[i];
  }
  mean /= static_cast<double>(rates.size());
  const double b = slope(x, rates);
  const double mid = static_cast<double>(rates.size() - 1) / 2;
  const double first = mean - b * mid;
  const double last = mean + b * mid;
  return first > 0 ? last / first : 0;
}

std::pair<std::uint64_t, std::uint64_t> rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::uint64_t rss = 0, hwm = 0;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) rss = std::stoull(line.substr(6));
    if (line.rfind("VmHWM:", 0) == 0) hwm = std::stoull(line.substr(6));
  }
  return {rss, hwm};
}

std::pair<double, double> cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime), ms(ru.ru_stime)};
}

namespace {

std::uint64_t xorshift(std::uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

constexpr int kProbeSlotBits = 19;
constexpr std::size_t kProbeSort = 1 << 17, kProbeSlots = 1 << kProbeSlotBits;

}  // namespace

double host_probe_ms() {
  // Keys come from [1, kKeys], so the table stays at most half full.
  constexpr std::size_t kOps = 1 << 19;
  constexpr std::uint64_t kKeys = kProbeSlots / 2;
  // Inputs and buffers are made once, before the first timed pass.
  static const std::vector<std::uint32_t> input = [] {
    std::vector<std::uint32_t> v(kProbeSort);
    std::uint64_t x = 88172645463325252ull;
    for (auto& e : v) e = static_cast<std::uint32_t>(xorshift(&x));
    return v;
  }();
  static std::vector<std::uint32_t> sorted(kProbeSort);
  static std::vector<std::uint64_t> table(kProbeSlots);

  const double s = now_ms();
  std::copy(input.begin(), input.end(), sorted.begin());
  std::sort(sorted.begin(), sorted.end());
  std::fill(table.begin(), table.end(), 0);
  std::uint64_t x = sorted[kProbeSort / 2] | 1, hits = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::uint64_t key = xorshift(&x) % kKeys + 1;
    std::size_t slot = (key * 0x9E3779B97F4A7C15ull) >> (64 - kProbeSlotBits);
    while (table[slot] != 0 && table[slot] != key) {
      slot = (slot + 1) & (kProbeSlots - 1);
    }
    hits += table[slot] == key;
    table[slot] = key;
  }
  volatile std::uint64_t sink = hits;
  (void)sink;
  return now_ms() - s;
}

std::uint64_t host_probe_bytes() {
  return 2 * kProbeSort * sizeof(std::uint32_t) +
         kProbeSlots * sizeof(std::uint64_t);
}

double to_reference(const std::vector<double>& probes) {
  if (probes.empty()) return 1;
  double sum = 0;
  for (double p : probes) sum += p;
  return kProbeRefMs * static_cast<double>(probes.size()) / sum;
}

std::uint64_t OpenLoop::due_count(double t) const {
  if (t < start_) return 0;
  return static_cast<std::uint64_t>(std::floor((t - start_) / period_)) + 1;
}

std::uint16_t pick_free_ports(int count, std::uint64_t salt) {
  std::mt19937_64 rng(salt ^ (static_cast<std::uint64_t>(getpid()) << 20) ^
                      static_cast<std::uint64_t>(now_ms() * 1e3));
  for (int attempt = 0; attempt < 200; ++attempt) {
    const auto base = static_cast<std::uint16_t>(
        20000 + rng() % static_cast<std::uint64_t>(40000 - count));
    bool free = true;
    std::vector<int> held;
    for (int i = 0; i < count && free; ++i) {
      const int fd = socket(AF_INET, SOCK_DGRAM, 0);
      if (fd < 0) return 0;
      sockaddr_in a{};
      a.sin_family = AF_INET;
      a.sin_port = htons(static_cast<std::uint16_t>(base + i));
      a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
        free = false;
      }
      held.push_back(fd);
    }
    for (int fd : held) close(fd);
    if (free) return base;
  }
  return 0;
}

std::string make_run_dir(const std::string& root, const std::string& prefix) {
  mkdir(root.c_str(), 0755);
  std::random_device rd;
  for (;;) {
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, "%d-%08x", static_cast<int>(getpid()),
                  static_cast<unsigned>(rd()));
    const std::string path = root + "/" + prefix + "-" + suffix;
    if (mkdir(path.c_str(), 0755) == 0) return path;
  }
}

void remove_tree(const std::string& path) {
  DIR* d = opendir(path.c_str());
  if (d == nullptr) {
    unlink(path.c_str());
    return;
  }
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    struct stat st{};
    if (lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      remove_tree(child);
    } else {
      unlink(child.c_str());
    }
  }
  closedir(d);
  rmdir(path.c_str());
}

Host host_fingerprint() {
  Host h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      h.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  utsname u{};
  if (uname(&u) == 0) h.kernel = u.release;
  return h;
}

const char* build_type() { return PERFBENCH_BUILD_TYPE; }

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string result_line(const RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) os << ", ";
    first = false;
    // Names and units come from the fixed catalogue: nothing to escape.
    os << '"' << name << "\": {\"value\": " << fmt_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
