#include "serve/version.h"

#include <sstream>

#include "bench/harness.h"
#include "serve/protocol.h"

#ifndef SWSIM_VERSION
#define SWSIM_VERSION "unknown"
#endif

namespace swsim::serve {

BuildInfo build_info() {
  const bench::EnvInfo env = bench::current_env();
  BuildInfo info;
  info.protocol = kProtocol;
  info.version = SWSIM_VERSION;
  info.git_sha = env.git_sha;
  info.compiler = env.compiler;
  info.flags = env.flags;
  info.build_type = env.build_type;
  info.cores = env.cores;
  info.kernel_isa = env.kernel_isa;
  return info;
}

std::string describe(const BuildInfo& info) {
  std::ostringstream os;
  os << "swsim " << info.version << " (" << info.protocol << ")\n"
     << "  git sha     " << info.git_sha << '\n'
     << "  compiler    " << info.compiler << '\n'
     << "  flags       " << (info.flags.empty() ? "(none)" : info.flags)
     << '\n'
     << "  build type  " << info.build_type << '\n'
     << "  cores       " << info.cores << '\n'
     << "  kernel isa  " << info.kernel_isa << '\n';
  return os.str();
}

}  // namespace swsim::serve
