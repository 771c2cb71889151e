/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is (name, start, end, parent, request id). The benchmark opens
 * spans around the calls it makes into the simulator's public API —
 * workload -> phase (mode, scheme or rate) -> call (batch, sublayer,
 * SystolicGemm::run, request) — and writes them out once the run ends,
 * with each span's self time: its duration minus the part of it that
 * its children cover. A disabled tracer records nothing.
 */

#ifndef USYS_PERFBENCH_TRACE_H
#define USYS_PERFBENCH_TRACE_H

#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double t0 = 0.0, t1 = 0.0; // seconds (steady clock)
        usys::u32 parent = 0;      // 0 = root
        usys::u64 request = 0;     // shared by one request's spans
    };

    void enable(bool on) { on_ = on; }
    bool enabled() const { return on_; }

    /** Open a span; returns its id (0 when disabled). Thread-safe. */
    usys::u32 begin(const std::string &name, usys::u32 parent,
                    usys::u64 request = 0);

    /** Close span `id` (no-op for 0). Thread-safe. */
    void end(usys::u32 id);

    /** Record a finished span with explicit times. Thread-safe. */
    usys::u32 add(const std::string &name, usys::u32 parent, double t0,
                  double t1, usys::u64 request = 0);

    /** Write every span (with self time) as JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    /** Self time (seconds) of every span, indexed by id - 1. */
    std::vector<double> selfTimes() const;

    bool on_ = false;
    mutable std::mutex mu_;
    // id = index + 1; a deque never moves recorded spans, so an append
    // under the lock stays short however many spans a run records.
    std::deque<Span> spans_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name, usys::u32 parent,
               usys::u64 request = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, request))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    usys::u32 id() const { return id_; }

  private:
    Tracer &tracer_;
    usys::u32 id_;
};

} // namespace perfbench

#endif // USYS_PERFBENCH_TRACE_H
