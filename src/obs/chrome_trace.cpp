#include "obs/chrome_trace.hpp"

#include <cstdio>
#include <fstream>

namespace tt::obs {

namespace {

/// Escapes a string for a JSON literal. Event names are static strings
/// under our control, but keep the exporter safe for arbitrary content.
std::string json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// ns -> fractional µs, the trace-event format's time unit.
double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

bool write_chrome_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "ttstart: cannot write trace file %s\n", path.c_str());
    return false;
  }

  out.precision(3);
  out << std::fixed;
  out << "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&]() -> std::ofstream& {
    out << (first ? "  " : ",\n  ");
    first = false;
    return out;
  };

  for (const ThreadEvents& th : tracer.drain()) {
    // tid 0 is the thread that installed the tracer: Tracer::install()
    // registers the calling thread before publishing the tracer, so the
    // coordinator deterministically owns the first slot.
    sep() << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": " << th.tid
          << ", \"args\": {\"name\": \""
          << (th.tid == 0 ? "coordinator" : "worker-" + std::to_string(th.tid))
          << "\"}}";
    for (const TraceEvent& e : th.events) {
      switch (e.kind) {
        case EventKind::kSpan:
          sep() << "{\"ph\": \"X\", \"name\": \"" << json_escape(e.name)
                << "\", \"cat\": \"ttstart\", \"pid\": 1, \"tid\": " << th.tid
                << ", \"ts\": " << us(e.ts_ns) << ", \"dur\": " << us(e.dur_ns);
          if (e.arg != kNoArg || e.detail != nullptr) {
            out << ", \"args\": {";
            bool arg_first = true;
            if (e.arg != kNoArg) {
              out << "\"" << json_escape(e.arg_name != nullptr ? e.arg_name : "arg")
                  << "\": " << e.arg;
              arg_first = false;
            }
            for (std::size_t i = 0; i < e.num_extra_args; ++i) {
              out << (arg_first ? "" : ", ") << "\"" << json_escape(e.extra_args[i].name)
                  << "\": " << e.extra_args[i].value;
              arg_first = false;
            }
            if (e.detail != nullptr) {
              out << (arg_first ? "" : ", ") << "\"detail\": \""
                  << json_escape(e.detail) << "\"";
            }
            out << "}";
          }
          out << "}";
          break;
        case EventKind::kCounter:
          sep() << "{\"ph\": \"C\", \"name\": \"" << json_escape(e.name)
                << "\", \"pid\": 1, \"tid\": " << th.tid << ", \"ts\": " << us(e.ts_ns)
                << ", \"args\": {\"value\": " << e.value << "}}";
          break;
        case EventKind::kInstant:
          sep() << "{\"ph\": \"i\", \"name\": \"" << json_escape(e.name)
                << "\", \"pid\": 1, \"tid\": " << th.tid << ", \"ts\": " << us(e.ts_ns)
                << ", \"s\": \"t\"";
          if (e.detail != nullptr) {
            out << ", \"args\": {\"detail\": \"" << json_escape(e.detail) << "\"}";
          }
          out << "}";
          break;
      }
    }
  }
  out << "\n ]\n}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace tt::obs
