/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * fatal() is for user-recoverable configuration errors (exit(1));
 * panic() is for internal invariant violations (abort()).
 *
 * debug()/inform()/warn() are gated by a verbosity level, initialized
 * from the USYS_LOG_LEVEL environment variable ("debug", "inform",
 * "warn", or "quiet"; default "inform") so instrumented hot paths can
 * log without flooding stderr. fatal()/panic() always print.
 */

#ifndef USYS_COMMON_LOGGING_H
#define USYS_COMMON_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <string>

namespace usys {

/** Message severities, ordered from chattiest to most severe. */
enum class LogLevel
{
    Debug = 0,
    Inform = 1,
    Warn = 2,
    Quiet = 3, // suppress everything below fatal/panic
};

/** Current verbosity threshold (messages below it are dropped). */
LogLevel logLevel();

/** Override the threshold (tests; normally set via USYS_LOG_LEVEL). */
void setLogLevel(LogLevel level);

/**
 * Parse a USYS_LOG_LEVEL value; falls back to Inform (with a warning)
 * on an unrecognized string.
 */
LogLevel parseLogLevel(const std::string &name);

/**
 * Short tag naming the calling thread in log prefixes. Every line is
 * prefixed `[+<elapsed-ms> <tag>]` (elapsed on the shared hostTimeUs()
 * clock, so log lines and Chrome-trace events line up); executor
 * workers tag themselves "w<slot>", other threads default to "t<n>" in
 * first-log order (the main thread is almost always "t0").
 */
const std::string &logThreadTag();

/** Override the calling thread's log tag. */
void setLogThreadTag(const std::string &tag);

/** Print a debug message to stderr (dropped unless level is Debug). */
void debug(const std::string &msg);

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** Print a warning message to stderr. */
void warn(const std::string &msg);

/** Report a user error (bad configuration / arguments) and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal invariant violation and abort(). */
[[noreturn]] void panic(const std::string &msg);

/** panic() unless the condition holds. */
inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond)
        panic(msg);
}

/** fatal() unless the condition holds. */
inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond)
        fatal(msg);
}

// Literal-message forms: a check that holds builds no std::string, so
// per-call config checks on hot paths cost a compare, not a malloc.
inline void
panicIf(bool cond, const char *msg)
{
    if (cond)
        panic(msg);
}

inline void
fatalIf(bool cond, const char *msg)
{
    if (cond)
        fatal(msg);
}

} // namespace usys

#endif // USYS_COMMON_LOGGING_H
