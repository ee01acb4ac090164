// Machine-readable benchmark baselines (BENCH_sim.json / BENCH_sweep.json).
//
// The writer is a minimal streaming JSON builder (objects, arrays,
// numbers, strings) — enough to emit the bench schemas without a
// dependency. The reader flattens a JSON document into dotted-path
// numeric keys ("sweeps.kset.runs_per_sec" -> 1234.5), which is all the
// CI regression gate needs: compare every throughput metric of the
// current run against the checked-in baseline and fail on regressions
// beyond a tolerance (improvements never fail), and require every run
// digest checksum to repeat exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace saf::sweep {

/// Streaming JSON builder with correct comma/indent handling.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Keys apply inside objects, immediately before the value.
  JsonWriter& key(std::string_view k);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  /// Without this, string literals would convert to bool, not string_view.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  const std::string& str() const { return out_; }

 private:
  void comma_and_indent();
  std::string out_;
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
};

/// Numeric fields of a JSON document, keyed by dotted path (arrays use
/// the element index as a segment). Booleans map to 0/1; strings and
/// nulls are skipped. Throws std::runtime_error on malformed input.
using FlatJson = std::map<std::string, double>;
FlatJson parse_json_numbers(const std::string& text);
/// Reads and flattens a JSON file; throws on I/O or parse failure.
FlatJson load_json_numbers(const std::string& path);

/// The unsigned-integer leaves of a JSON document, exactly, keyed like
/// FlatJson. A double keeps only 53 bits — too few for a 64-bit digest
/// checksum — so exact comparisons read these instead.
using FlatIntegers = std::map<std::string, std::uint64_t>;
FlatIntegers parse_json_integers(const std::string& text);
FlatIntegers load_json_integers(const std::string& path);

/// Writes `text` to `path` (atomically enough for our purposes).
void write_file(const std::string& path, const std::string& text);

/// Writes `text` to `path` via a same-directory temp file + rename, so
/// a reader (or a process killed mid-write — rt/chaos.h SIGKILLs nodes
/// on purpose) never observes a truncated file: the old content stays
/// until the new content is fully on disk.
void write_file_atomic(const std::string& path, const std::string& text);

struct RegressionReport {
  /// Human-readable "metric: baseline -> current (-37%)" lines.
  std::vector<std::string> regressions;
  /// Metrics present in the baseline but missing from the current run.
  std::vector<std::string> missing;
  bool ok() const { return regressions.empty() && missing.empty(); }
};

/// Gate used by CI: every baseline throughput metric ("*_per_sec") must
/// not fall below baseline by more than `tolerance` (a fraction, e.g.
/// 0.25); improvements never fail. Other keys — wall-time percentiles,
/// counts, digests, shape parameters — are machine- or run-local
/// diagnostics and are not compared.
RegressionReport compare_benchmarks(const FlatJson& baseline,
                                    const FlatJson& current,
                                    double tolerance);

/// Exact gate used by CI next to compare_benchmarks: every baseline
/// "*digest_checksum" must be present in the current run and equal.
/// A checksum pins a workload's run outcomes (decisions, times, event
/// counts), so any difference is a behaviour change, not noise.
RegressionReport compare_checksums(const FlatIntegers& baseline,
                                   const FlatIntegers& current);

}  // namespace saf::sweep
