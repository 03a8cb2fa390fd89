// Negative controls for [hot-path] in the state storage: flat arrays, and
// the allow escape.
#pragma once

#include <map>
#include <vector>

namespace fx {
std::vector<int> slot_;
std::map<int, int> debug_;  // tango-lint: allow(container)
}  // namespace fx
