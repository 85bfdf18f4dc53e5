#include "src/core/logging.h"

#include <chrono>
#include <cstdio>

namespace dyhsl {
namespace {

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  (void)file;
  (void)line;
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) < static_cast<int>(kMinLogLevel)) return;
  using Clock = std::chrono::system_clock;
  auto now = Clock::to_time_t(Clock::now());
  struct tm tm_buf;
  localtime_r(&now, &tm_buf);
  char ts[32];
  std::strftime(ts, sizeof(ts), "%H:%M:%S", &tm_buf);
  std::fprintf(stderr, "[%s %s] %s\n", LevelTag(level_), ts,
               stream_.str().c_str());
}

}  // namespace internal
}  // namespace dyhsl
