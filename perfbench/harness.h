// Shared plumbing of the benchmark driver: clocks, percentiles, the
// open-loop request schedule, process sampling, port and
// directory isolation, and the result record.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sweep/bench_json.h"

namespace perfbench {

/// Monotonic milliseconds (CLOCK_MONOTONIC, sub-ms resolution). The
/// clock is system-wide, so forked node processes and the driver share
/// one timeline.
double now_ms();

/// The tail the benchmark reports for `n` samples: p99 when at least
/// ten samples lie beyond it, else the highest rank that still leaves
/// ten samples beyond. Returns the percentile (0 when n < 20: too few
/// samples for a tail).
double tail_percentile(std::size_t n);

/// Samples strictly beyond the nearest-rank `p` percentile of n values.
std::size_t samples_beyond(std::size_t n, double p);

double median(std::vector<double> v);

/// Slope of the least-squares line through (x, y).
double slope(const std::vector<double>& x, const std::vector<double>& y);

/// Drift of a rate series taken at equal steps: the least-squares line
/// through it, read at the last step over the same line at the first.
/// A fitted line is used because single windows are too noisy to
/// compare. 0 when the series is too short or the line starts <= 0.
double fitted_drift(const std::vector<double>& rates);

/// Resident set size of this process and its high-water mark, in kB
/// (/proc/self/status VmRSS / VmHWM).
std::pair<std::uint64_t, std::uint64_t> rss_kb();

/// User and system CPU of this process, in milliseconds (getrusage).
std::pair<double, double> cpu_ms();

/// Host-speed probe. The host is a shared VM whose speed for CPU-bound
/// work moves by 20-50% over tens of seconds, so whole runs of the
/// single-threaded workloads come out fast or slow. The probe is a fixed
/// kernel of the benchmark's own (a sort and open-addressing hash
/// probes, no allocation, no repository code) timed between units of
/// work; a wall time measured alongside it is scaled to the reference
/// host by `kProbeRefMs / mean(probes)`. A change to the program moves
/// the unit times and not the probe, so it still shows in full.
double host_probe_ms();

/// Bytes the probe keeps resident once it has run (its buffers live
/// for the whole process); the batch workloads leave them out of their
/// peak RSS.
std::uint64_t host_probe_bytes();

/// Probe wall on the reference host, a 4-core Intel Xeon VM (Linux
/// 6.18, Release build), where it reads 16-22 ms. It only sets the
/// scale: every scaled figure is proportional to it.
constexpr double kProbeRefMs = 18.0;

/// Factor that scales a wall time measured alongside `probes` to the
/// reference host (1 when there are none).
double to_reference(const std::vector<double>& probes);

/// Open-loop schedule: request i is due at start + i / rate. Latency is
/// measured from the due time, so a stalled sender charges its stall to
/// every request that waited behind it.
class OpenLoop {
 public:
  OpenLoop(double start_ms, double rate_per_s)
      : start_(start_ms), period_(1000.0 / rate_per_s) {}
  double due(std::uint64_t i) const {
    return start_ + static_cast<double>(i) * period_;
  }
  /// Requests due at or before `t` (index of the first one not yet due).
  std::uint64_t due_count(double t) const;

 private:
  double start_;
  double period_;
};

/// A distinct port range [base, base + count) on 127.0.0.1 that no
/// socket holds right now; chosen at random so concurrent or repeated
/// runs do not share ports. Returns 0 when none was found.
std::uint16_t pick_free_ports(int count, std::uint64_t salt);

/// Creates a fresh directory `<root>/<prefix>-<pid>-<random>`.
std::string make_run_dir(const std::string& root, const std::string& prefix);
void remove_tree(const std::string& path);

/// Host fingerprint: nproc, CPU model, kernel release.
struct Host {
  long nproc = 0;
  std::string cpu_model;
  std::string kernel;
};
Host host_fingerprint();

/// Build type baked in at compile time, and whether the compiler
/// optimized this build.
const char* build_type();
bool optimized_build();

/// Shortest representation that round-trips the double.
std::string fmt_number(double v);

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< why `correct` is false
  /// The contract metrics: end-to-end (untraced) or per-layer (traced).
  std::vector<std::pair<std::string, Metric>> metrics;
  /// The workload's own metrics under the names its docs use, printed
  /// before the result line (not part of the contract's metric set).
  std::vector<std::pair<std::string, Metric>> named;
  /// Writes the per-second timeseries (svc workloads) into the record.
  std::function<void(saf::sweep::JsonWriter*)> write_timeseries;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void add(const std::string& name, double v, const std::string& unit) {
    metrics.emplace_back(name, Metric{v, unit});
  }
  void add_named(const std::string& name, double v, const std::string& unit) {
    named.emplace_back(name, Metric{v, unit});
  }
};

/// The contract's result line: one line, every value with all its
/// digits (sweep::JsonWriter, used for the record, indents and keeps
/// six significant digits).
std::string result_line(const RunResult& r);

}  // namespace perfbench
