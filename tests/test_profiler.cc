/**
 * @file
 * Tests of the hierarchical scoped profiler: nesting and call counts,
 * the disabled fast path, serialization formats, and — the load-bearing
 * contract — that the merged tree's structure (names and call counts)
 * is identical whether a workload runs on 1 executor thread or 3,
 * thanks to the worker-anchor mechanism.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/profiler.h"
#include "common/stats_registry.h"

using namespace usys;

namespace {

/** Pin the executor thread count for one test, restoring the
 *  environment-resolved default afterwards. */
struct ThreadGuard
{
    explicit ThreadGuard(unsigned n) { Executor::global().setThreads(n); }
    ~ThreadGuard() { Executor::global().setThreads(0); }
};

/** Every test starts and ends with a clean, disabled profiler. */
class ProfilerTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        Profiler::global().setEnabled(false);
        Profiler::global().reset();
    }
    void TearDown() override
    {
        Profiler::global().setEnabled(false);
        Profiler::global().reset();
    }
};

const Profiler::MergedNode *
findChild(const Profiler::MergedNode &node, const std::string &name)
{
    for (const auto &child : node.children)
        if (child.name == name)
            return &child;
    return nullptr;
}

/** A two-level workload: one outer scope, a parallel region whose body
 *  opens an inner scope per index. */
void
runAnchoredWorkload()
{
    USYS_PROF_SCOPE("outer");
    std::atomic<u64> sink{0};
    parallelFor(0, 8, [&](u64 i) {
        USYS_PROF_SCOPE("inner");
        u64 acc = i;
        for (int k = 0; k < 2000; ++k)
            acc = acc * 6364136223846793005ull + 1442695040888963407ull;
        sink += acc;
    });
}

} // namespace

TEST_F(ProfilerTest, DisabledScopesRecordNothing)
{
    {
        USYS_PROF_SCOPE("ghost");
        USYS_PROF_SCOPE("ghost.child");
    }
    const auto root = Profiler::global().merged();
    EXPECT_EQ(root.children.size(), 0u);
}

TEST_F(ProfilerTest, NestingCountsAndExclusiveTimes)
{
    Profiler &prof = Profiler::global();
    prof.setEnabled(true);
    for (int rep = 0; rep < 3; ++rep) {
        USYS_PROF_SCOPE("a");
        for (int k = 0; k < 2; ++k) {
            USYS_PROF_SCOPE("b");
        }
        USYS_PROF_SCOPE("c");
    }
    prof.setEnabled(false);

    const auto root = prof.merged();
    EXPECT_EQ(root.name, "root");
    const auto *a = findChild(root, "a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->calls, 3u);
    ASSERT_EQ(a->children.size(), 2u);
    // Children are sorted by name.
    EXPECT_EQ(a->children[0].name, "b");
    EXPECT_EQ(a->children[1].name, "c");
    EXPECT_EQ(a->children[0].calls, 6u);
    EXPECT_EQ(a->children[1].calls, 3u);
    // Inclusive covers the children; exclusive is the derived rest.
    const u64 child_incl =
        a->children[0].incl_ns + a->children[1].incl_ns;
    EXPECT_GE(a->incl_ns, child_incl);
    EXPECT_EQ(a->excl_ns, a->incl_ns - child_incl);
    // The synthetic root spans the whole enabled window.
    EXPECT_GE(root.incl_ns, a->incl_ns);
}

TEST_F(ProfilerTest, UnbalancedPopIsTolerated)
{
    Profiler &prof = Profiler::global();
    prof.setEnabled(true);
    prof.pop(); // no open frame: must not crash or underflow
    {
        USYS_PROF_SCOPE("alone");
    }
    prof.setEnabled(false);
    const auto root = prof.merged();
    const auto *alone = findChild(root, "alone");
    ASSERT_NE(alone, nullptr);
    EXPECT_EQ(alone->calls, 1u);
}

TEST_F(ProfilerTest, InternedNamesSurviveTheSourceString)
{
    Profiler &prof = Profiler::global();
    const char *name = nullptr;
    {
        std::string dynamic = "dyn.scope";
        name = prof.intern(dynamic);
        dynamic.assign(64, 'x'); // clobber the source
    }
    prof.setEnabled(true);
    {
        ProfScope scope(name);
    }
    prof.setEnabled(false);
    const auto root = prof.merged();
    EXPECT_NE(findChild(root, "dyn.scope"), nullptr);
}

TEST_F(ProfilerTest, MergedTreeIsThreadCountInvariant)
{
    Profiler &prof = Profiler::global();

    std::string sig_serial;
    {
        ThreadGuard guard(1);
        prof.setEnabled(true);
        runAnchoredWorkload();
        prof.setEnabled(false);
        sig_serial = prof.signature();
        prof.reset();
    }

    std::string sig_parallel;
    {
        ThreadGuard guard(3);
        prof.setEnabled(true);
        runAnchoredWorkload();
        prof.setEnabled(false);
        sig_parallel = prof.signature();
        prof.reset();
    }

    // Names and call counts must match exactly; only times may differ.
    EXPECT_EQ(sig_serial, sig_parallel);
    EXPECT_NE(sig_serial.find("outer 1"), std::string::npos);
    EXPECT_NE(sig_serial.find("inner 8"), std::string::npos);

    // And the structure is the serial nesting: inner under outer.
    ThreadGuard guard(3);
    prof.setEnabled(true);
    runAnchoredWorkload();
    prof.setEnabled(false);
    const auto root = prof.merged();
    const auto *outer = findChild(root, "outer");
    ASSERT_NE(outer, nullptr);
    const auto *inner = findChild(*outer, "inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->calls, 8u);
    // No stray top-level "inner": worker frames were re-rooted.
    EXPECT_EQ(findChild(root, "inner"), nullptr);
}

TEST_F(ProfilerTest, JsonAndCollapsedSerialization)
{
    Profiler &prof = Profiler::global();
    prof.setEnabled(true);
    {
        USYS_PROF_SCOPE("ser.a");
        USYS_PROF_SCOPE("ser.b");
    }
    prof.setEnabled(false);

    const std::string json = prof.json("unit_test");
    EXPECT_NE(json.find("\"bench\": \"unit_test\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"wall_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\""), std::string::npos);
    EXPECT_NE(json.find("\"root\""), std::string::npos);
    EXPECT_NE(json.find("\"ser.a\""), std::string::npos);
    EXPECT_NE(json.find("\"ser.b\""), std::string::npos);

    const std::string collapsed = prof.collapsed();
    // The leaf's exclusive time appears as "ser.a;ser.b <ns>".
    EXPECT_NE(collapsed.find("ser.a;ser.b "), std::string::npos);
    for (std::size_t pos = 0; pos < collapsed.size();) {
        const std::size_t eol = collapsed.find('\n', pos);
        ASSERT_NE(eol, std::string::npos); // every line terminated
        const std::string line = collapsed.substr(pos, eol - pos);
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        for (char c : line.substr(space + 1))
            EXPECT_TRUE(c >= '0' && c <= '9') << line;
        pos = eol + 1;
    }
}

TEST_F(ProfilerTest, WorkerAnchorIsIdempotentPerRegion)
{
    Profiler &prof = Profiler::global();
    prof.setEnabled(true);
    const char *anchor_name = prof.intern("anchor.site");
    const std::vector<const char *> path{anchor_name};
    prof.applyWorkerAnchor(path, 77);
    {
        USYS_PROF_SCOPE("work");
    }
    prof.applyWorkerAnchor(path, 77); // same region: must be a no-op
    {
        USYS_PROF_SCOPE("work");
    }
    prof.setEnabled(false);

    const auto root = prof.merged();
    const auto *site = findChild(root, "anchor.site");
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->calls, 0u); // replica node, never entered
    const auto *work = findChild(*site, "work");
    ASSERT_NE(work, nullptr);
    EXPECT_EQ(work->calls, 2u);
}

TEST_F(ProfilerTest, ExecutorPublishesWorkerTelemetry)
{
    Executor &ex = Executor::global();
    ThreadGuard guard(3);
    std::atomic<u64> sink{0};
    parallelFor(0, 16, [&](u64 i) {
        u64 acc = i;
        for (int k = 0; k < 1000; ++k)
            acc = acc * 2862933555777941757ull + 3037000493ull;
        sink += acc;
    });

    const auto counters = ex.workerCounters();
    ASSERT_EQ(counters.size(), 3u);
    u64 tasks = 0, steals = 0;
    for (const auto &slot : counters) {
        tasks += slot.tasks;
        steals += slot.steals;
    }
    EXPECT_EQ(tasks, 16u); // every chunk executed exactly once
    EXPECT_EQ(steals, ex.stealCount());
    // Slot 0 is the region caller: it never blocks on the region cv.
    EXPECT_EQ(counters[0].idle_ns, 0u);

    Histogram latency("exec.task_latency_us", "latency",
                      Executor::kTaskLatencyLoUs,
                      Executor::kTaskLatencyHiUs,
                      Executor::kTaskLatencyBuckets);
    ex.mergeTaskLatency(latency);
    EXPECT_EQ(latency.count(), 16u);
}
