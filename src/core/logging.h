// Minimal leveled logger used by the training pipeline and benches.

#ifndef DYHSL_CORE_LOGGING_H_
#define DYHSL_CORE_LOGGING_H_

#include <sstream>
#include <string>

namespace dyhsl {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// \brief Messages below this level are dropped.
inline constexpr LogLevel kMinLogLevel = LogLevel::kInfo;

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define DYHSL_LOG(level)                                              \
  ::dyhsl::internal::LogMessage(::dyhsl::LogLevel::k##level, __FILE__, \
                                __LINE__)

}  // namespace dyhsl

#endif  // DYHSL_CORE_LOGGING_H_
