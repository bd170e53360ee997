// Environment introspection and benchmark knobs.
//
// The bench harness reads a handful of PAREMSP_* environment variables so a
// single binary can run both quick smoke sweeps (default) and paper-scale
// experiments without recompiling; see DESIGN.md substitution S3.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace paremsp {

/// Value of an environment variable, if set and non-empty.
std::optional<std::string> env_string(const char* name);

/// Parse an environment variable as double; `fallback` when unset/invalid.
double env_double(const char* name, double fallback);

/// Parse an environment variable as int; `fallback` when unset/invalid.
int env_int(const char* name, int fallback);

/// Parse an environment variable as std::uint64_t (decimal or 0x-hex);
/// `fallback` when unset/invalid. The randomized test harnesses read
/// PAREMSP_TEST_SEED through this so any CI failure replays verbatim:
///   PAREMSP_TEST_SEED=<seed from the failure message> ctest ...
std::uint64_t env_uint64(const char* name, std::uint64_t fallback);

/// Number of hardware threads (at least 1): what `threads = 0` means for
/// the parallel labelers. Read once per process and cached.
int hardware_threads();

/// One-line description of the execution environment for table headers.
std::string environment_banner();

}  // namespace paremsp
