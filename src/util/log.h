#pragma once

#include <atomic>
#include <sstream>
#include <string>

#include "util/units.h"

namespace ezflow::util {

enum class LogLevel { kOff = 0, kError, kWarn, kInfo, kDebug, kTrace };

/// Global simulator log. Off by default so tests/benches stay quiet;
/// examples turn it up with --log=debug. Sweep and shard workers may log
/// concurrently: the level is an atomic read relaxed (a level change
/// orders nothing else), and write() emits each line whole under one
/// mutex.
class Log {
public:
    static LogLevel level();
    static void set_level(LogLevel level);
    static LogLevel parse_level(const std::string& name);

    /// Emit one line at `level`, stamped with the current simulated time
    /// (pass a negative time to omit the stamp).
    static void write(LogLevel level, SimTime now, const std::string& message);

private:
    static std::atomic<LogLevel> level_;
};

#define EZF_LOG(lvl, now, expr)                                               \
    do {                                                                      \
        if (::ezflow::util::Log::level() >= (lvl)) {                          \
            std::ostringstream ezf_log_os;                                    \
            ezf_log_os << expr;                                               \
            ::ezflow::util::Log::write((lvl), (now), ezf_log_os.str());       \
        }                                                                     \
    } while (false)

}  // namespace ezflow::util
