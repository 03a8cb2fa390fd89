// Negative control for [hot-path]: the rule covers src/sched/dss_lc.* only,
// not the rest of src/sched.
#include <map>

namespace fx {
std::map<int, int> per_cluster_;
}  // namespace fx
