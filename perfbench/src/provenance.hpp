// The provenance header every benchmark output starts with: what was built,
// how, and on what machine the numbers were taken.
#pragma once

#include <string>

namespace ttbench {

/// One JSON object: git sha and source digest (passed in by run.py, which
/// can see the checkout), compiler, build type, optimisation and NDEBUG
/// state, hardware_concurrency, CPU model and the possibly_one_core flag.
[[nodiscard]] std::string provenance_json(const std::string& git_sha,
                                          const std::string& source_digest);

/// Quotes and escapes `s` as a JSON string literal.
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace ttbench
