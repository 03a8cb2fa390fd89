// Per-cluster BE admission guard — the HRM admission rule the sharded
// engine runs on every master.
//
// §4.1's harvesting contract, reduced to the aggregate level a 100k-node
// simulation can afford: BE may harvest idle capacity, but LC must always
// find room, so each cluster caps total BE residency at a fraction of
// capacity that *shrinks* as LC pressure grows. (When an LC request still
// cannot fit, ClusterModel evicts and restarts BE on the worker
// sched::PickEvictionWorker picks.) Pure functions over aggregates:
// shard-safe, unit-testable, no system dependency.
#pragma once

#include "common/units.h"

namespace tango::hrm {

struct BeGuardConfig {
  /// BE may fill the cluster up to this fraction of total capacity when LC
  /// is idle...
  double be_cap_idle = 0.90;
  /// ...linearly squeezed down to this fraction as LC pressure approaches 1
  /// (mirrors the D-VPA shrink direction: LC grows, BE yields).
  double be_cap_busy = 0.20;
};

/// LC pressure of a cluster: LC usage over total capacity, in [0, 1].
double LcPressure(Millicores used_lc, Millicores capacity);

/// Maximum total BE residency the cluster tolerates at the given LC
/// pressure (millicores).
Millicores BeAdmissionBound(const BeGuardConfig& cfg, Millicores capacity,
                            double lc_pressure);

/// Admission check the target cluster's loop runs for one BE request:
/// admitting `demand` must keep total BE at or under the bound.
bool AdmitBe(const BeGuardConfig& cfg, Millicores capacity,
             Millicores used_lc, Millicores used_be, Millicores demand);

}  // namespace tango::hrm
