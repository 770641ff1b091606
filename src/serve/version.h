// Build fingerprint for the CLI and the serve handshake.
//
// `swsim version` prints it; the serve `hello` response echoes the
// server's copy so a client can detect version skew (a daemon built from
// a different commit than the client invoking it) before trusting
// byte-identity with its local CLI. The values come from the same
// configure-time environment capture the bench harness bakes in
// (bench::current_env()), so a BENCH_*.json, a `swsim version` line and a
// serve handshake all agree about what binary produced them.
#pragma once

#include <string>

namespace swsim::serve {

struct BuildInfo {
  std::string protocol;    // wire protocol revision, "swsim.serve/1"
  std::string version;     // project version, "1.0.0"
  std::string git_sha;     // "abc1234" or "abc1234-dirty" or "unknown"
  std::string compiler;    // "GNU 13.2.0"
  std::string flags;       // CMAKE_CXX_FLAGS_<BUILDTYPE>
  std::string build_type;  // "Release", ...
  unsigned cores = 0;      // hardware concurrency at run time
  std::string kernel_isa;  // LLG kernel lanes: "sse2", "avx2", "avx512"
};

BuildInfo build_info();

// Multi-line human rendering for `swsim version`.
std::string describe(const BuildInfo& info);

}  // namespace swsim::serve
