// Seeded [hot-path] violation: a per-round node-based map in the DSS-LC
// round.
#include <map>

namespace fx {
std::map<int, int> by_type_;
}  // namespace fx
