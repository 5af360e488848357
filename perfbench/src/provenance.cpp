#include "provenance.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#include "support/one_core_probe.hpp"

namespace ttbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string provenance_json(const std::string& git_sha, const std::string& source_digest) {
#if defined(__OPTIMIZE__)
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
#if defined(NDEBUG)
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
  std::ostringstream os;
  os << "{\"git_sha\": " << json_string(git_sha)
     << ", \"source_digest\": " << json_string(source_digest)
     << ", \"compiler\": " << json_string(__VERSION__)
     << ", \"build_type\": " << json_string(TTBENCH_BUILD_TYPE)
     << ", \"optimized\": " << (kOptimized ? "true" : "false")
     << ", \"ndebug\": " << (kNdebug ? "true" : "false")
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"possibly_one_core\": " << tt::probe_possibly_one_core() << "}";
  return os.str();
}

}  // namespace ttbench
