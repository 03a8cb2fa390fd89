#include "hrm/be_guard.h"

#include <algorithm>

namespace tango::hrm {

double LcPressure(Millicores used_lc, Millicores capacity) {
  if (capacity <= 0) return 1.0;
  const double p =
      static_cast<double>(used_lc) / static_cast<double>(capacity);
  return std::clamp(p, 0.0, 1.0);
}

Millicores BeAdmissionBound(const BeGuardConfig& cfg, Millicores capacity,
                            double lc_pressure) {
  const double frac =
      cfg.be_cap_idle + (cfg.be_cap_busy - cfg.be_cap_idle) * lc_pressure;
  const auto bound =
      static_cast<Millicores>(static_cast<double>(capacity) * frac);
  return std::max<Millicores>(bound, 0);
}

bool AdmitBe(const BeGuardConfig& cfg, Millicores capacity,
             Millicores used_lc, Millicores used_be, Millicores demand) {
  const Millicores bound =
      BeAdmissionBound(cfg, capacity, LcPressure(used_lc, capacity));
  return used_be + demand <= bound;
}

}  // namespace tango::hrm
