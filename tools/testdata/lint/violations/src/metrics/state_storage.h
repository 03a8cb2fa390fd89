// Seeded [hot-path] violation: a tree-keyed snapshot store.
#pragma once

#include <unordered_map>

namespace fx {
std::unordered_map<int, int> rtt_;
}  // namespace fx
