#include "common/logging.hpp"

#include <cstdarg>
#include <cstdio>

namespace xrdma {

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

int Logger::add_sink(Sink sink) {
  const int id = next_id_++;
  sinks_.push_back({id, std::move(sink)});
  return id;
}

void Logger::remove_sink(int id) {
  std::erase_if(sinks_, [id](const Entry& e) { return e.id == id; });
}

void Logger::log(Nanos sim_time, LogLevel level, std::string component,
                 std::string message) {
  if (level < min_level_) return;
  LogRecord rec{sim_time, level, std::move(component), std::move(message)};
  for (auto& e : sinks_) e.sink(rec);
}

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace xrdma
