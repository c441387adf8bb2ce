#include "util/log.h"

#include <iostream>
#include <mutex>

namespace ezflow::util {

std::atomic<LogLevel> Log::level_{LogLevel::kOff};

LogLevel Log::level() { return level_.load(std::memory_order_relaxed); }

void Log::set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }

LogLevel Log::parse_level(const std::string& name)
{
    if (name == "off") return LogLevel::kOff;
    if (name == "error") return LogLevel::kError;
    if (name == "warn") return LogLevel::kWarn;
    if (name == "info") return LogLevel::kInfo;
    if (name == "debug") return LogLevel::kDebug;
    if (name == "trace") return LogLevel::kTrace;
    return LogLevel::kInfo;
}

void Log::write(LogLevel level, SimTime now, const std::string& message)
{
    if (Log::level() < level) return;
    static std::mutex mutex;
    const std::lock_guard<std::mutex> lock(mutex);
    if (now >= 0)
        std::cerr << "[" << to_seconds(now) << "s] " << message << '\n';
    else
        std::cerr << message << '\n';
}

}  // namespace ezflow::util
