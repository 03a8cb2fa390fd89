// Negative controls for [hot-path] in the DSS-LC round: dense scratch, and
// a node-based container named only in a comment (std::map<int, int>) or
// a string.
#include <vector>

namespace fx {
std::vector<std::vector<int>> buckets_;
const char* kNote = "std::map<int, int>";
}  // namespace fx
