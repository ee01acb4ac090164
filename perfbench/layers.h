// The metric catalogue and the per-layer unit costs.
//
// Unit costs time the public functions of each layer from outside the
// program (rt/codec, svc/wire, rt::UdpLink, the rt/chaos WAL, the
// simulator running core's Fig 3 instance, util's ProcSet) on inputs
// taken from the workload. No program code is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, printed by every untraced run.
const std::vector<MetricSpec>& end_to_end_catalog();
/// Every per-layer metric, printed by every traced run; a layer that a
/// workload does not run reads 0 there.
const std::vector<MetricSpec>& per_layer_catalog();

/// The per-layer values of one traced run, in catalogue order.
class Ledger {
 public:
  Ledger();
  /// `name` must be in the catalogue.
  void set(const std::string& name, double v);
  std::vector<std::pair<std::string, Metric>> entries() const;

 private:
  std::vector<std::pair<std::string, Metric>> rows_;
};

struct CoreCosts {
  double kset_instance_us = 0;  ///< one n=5 Fig 3 instance, no transport
  double events_per_instance = 0;
  double messages_per_instance = 0;
  double event_ns = 0;   ///< simulator ns per event on that instance
  double encode_ns = 0;  ///< rt::encode_message, per message
  double decode_ns = 0;  ///< rt::decode_message, per message
};

struct WireCosts {
  double encode_ns = 0;      ///< Submit / Reply encode, per message
  double decode_ns = 0;      ///< Submit / Reply decode, per message
  double snap_chunk_ns = 0;  ///< one SnapResp chunk, encode + decode
};

struct LinkCosts {
  double rtt_us = 0;    ///< UdpLink send -> peer poll -> reply -> poll
  double flush_ns = 0;  ///< one send + flush (one sendmmsg)
  double poll_ns = 0;   ///< one poll that reads one datagram
};

struct UnitCosts {
  CoreCosts core;
  WireCosts wire;
  LinkCosts link;
  double wal_store_us = 0;
  double procset_op_ns = 0;

  /// Writes the rt/svc/wal/core/util/sim unit-cost rows.
  void fill(Ledger* led) const;
};

/// Times every layer's unit cost. `values` are client proposals and
/// `log` a decided log (the svc workloads pass their own; the batch
/// workloads pass seeded stand-ins); the WAL record is stored under
/// `dir` at `frontier`.
UnitCosts time_unit_costs(std::uint64_t seed,
                          const std::vector<std::int64_t>& values,
                          const std::vector<std::int64_t>& log,
                          std::uint64_t frontier, const std::string& dir);

}  // namespace perfbench
