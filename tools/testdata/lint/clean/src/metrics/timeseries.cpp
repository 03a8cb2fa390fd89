// Negative control for [hot-path]: other src/metrics files are not covered.
#include <map>

namespace fx {
std::map<int, double> series_;
}  // namespace fx
