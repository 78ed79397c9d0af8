// Structured logging with pluggable sinks.
//
// The analysis framework's slow-segment logs (§VI-A method III) are emitted
// through this logger so the Monitor can collect them; tests install a
// capturing sink to assert on what was logged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace xrdma {

enum class LogLevel : int { debug = 0, info = 1, warn = 2, error = 3 };

struct LogRecord {
  Nanos sim_time = 0;
  LogLevel level = LogLevel::info;
  std::string component;  // e.g. "xr.channel", "rnic", "trace"
  std::string message;
};

class Logger {
 public:
  using Sink = std::function<void(const LogRecord&)>;

  /// Process-wide logger. Simulations are single-threaded so no locking.
  static Logger& global();

  void set_min_level(LogLevel level) { min_level_ = level; }

  /// Adds a sink; returns an id usable with remove_sink.
  int add_sink(Sink sink);
  void remove_sink(int id);

  void log(Nanos sim_time, LogLevel level, std::string component,
           std::string message);

 private:
  struct Entry {
    int id;
    Sink sink;
  };
  LogLevel min_level_ = LogLevel::info;
  int next_id_ = 1;
  std::vector<Entry> sinks_;
};

/// printf-style formatting helper.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace xrdma
