#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

double
steadyS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
writeEscaped(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

} // namespace

usys::u32
Tracer::begin(const std::string &name, usys::u32 parent, usys::u64 request)
{
    if (!on_)
        return 0;
    const double t = steadyS();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, t, parent, request});
    return usys::u32(spans_.size());
}

void
Tracer::end(usys::u32 id)
{
    if (id == 0)
        return;
    const double t = steadyS();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].t1 = t;
}

usys::u32
Tracer::add(const std::string &name, usys::u32 parent, double t0, double t1,
            usys::u64 request)
{
    if (!on_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t0, t1, parent, request});
    return usys::u32(spans_.size());
}

std::vector<double>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children may overlap (concurrent requests under one rate phase),
    // so the covered time is the length of the union of their
    // intervals, clipped to the parent.
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_)
        if (s.parent != 0)
            kids[s.parent - 1].push_back({s.t0, s.t1});
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (auto [a, b] : iv) {
            a = std::max(a, s.t0);
            b = std::min(b, s.t1);
            if (b <= a)
                continue;
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        self[i] = std::max(0.0, (s.t1 - s.t0) - covered);
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    const auto self = selfTimes();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
    std::fputs("{\"spans\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "  {\"id\": %zu, \"parent\": %u, \"request\": %llu, "
                        "\"name\": ",
                     i + 1, s.parent, (unsigned long long)s.request);
        writeEscaped(f, s.name);
        std::fprintf(f, ", \"start_us\": %.3f, \"dur_us\": %.3f, "
                        "\"self_us\": %.3f}%s\n",
                     (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6,
                     self[i] * 1e6, i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
