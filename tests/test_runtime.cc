/**
 * @file
 * Batch-execution runtime tests: ThreadPool scheduling basics, the
 * SweepEngine's ordered result delivery and stat aggregation, and the
 * central determinism guarantee — the same job batch at 1, 2 and 8
 * threads yields identical simulated cycles, machine-code fingerprints
 * and stat aggregates (timing keys excluded: wall-clock is the one
 * legitimately nondeterministic stat).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "compiler/compile_cache.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"

namespace effact {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter](size_t) { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WorkerIndicesStayInRange)
{
    ThreadPool pool(3);
    std::mutex mu;
    std::set<size_t> seen;
    for (int i = 0; i < 64; ++i)
        pool.submit([&](size_t worker) {
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(worker);
        });
    pool.wait();
    for (size_t worker : seen)
        EXPECT_LT(worker, 3u);
    EXPECT_GE(seen.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsOutstandingTasks)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&counter](size_t) { ++counter; });
        // No wait(): the destructor must drain before joining.
    }
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, WaitIsReusableBetweenBatches)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&counter](size_t) { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    pool.submit([&counter](size_t) { ++counter; });
    pool.submit([&counter](size_t) { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ZeroThreadRequestStillRuns)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::atomic<int> counter{0};
    pool.submit([&counter](size_t) { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
}

// --- Admission control / backpressure -------------------------------------

/** Blocks the pool's single worker until released, so the tests can
 *  build up queue pressure deterministically. */
class WorkerGate
{
  public:
    /** The gate task; submit it first so the worker parks on it. */
    ThreadPool::Task task()
    {
        return [this](size_t) {
            entered_.store(true);
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return open_; });
        };
    }

    /** Waits until the worker is actually parked inside the gate. */
    void awaitEntered()
    {
        while (!entered_.load())
            std::this_thread::yield();
    }

    void open()
    {
        std::lock_guard<std::mutex> lock(mu_);
        open_ = true;
        cv_.notify_all();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool open_ = false;
    std::atomic<bool> entered_{false};
};

TEST(ThreadPool, GroupWaitHelpsAndWaitsOnlyForItsOwnTasks)
{
    // The pool's only worker is parked in an unrelated top-level task,
    // and another top-level task queues behind it. An external
    // `Group::wait` must run its own queued tasks inline (index
    // `threadCount()`), leave the unrelated task queued, and return
    // while the worker is still blocked: no deadlock on 1 thread.
    ThreadPool pool(1);
    WorkerGate gate;
    pool.submit(gate.task());
    gate.awaitEntered();
    std::atomic<bool> unrelated_ran{false};
    pool.submit([&unrelated_ran](size_t) { unrelated_ran.store(true); });

    std::vector<size_t> indices(5, SIZE_MAX);
    {
        ThreadPool::Group group(pool);
        for (size_t t = 0; t < indices.size(); ++t)
            group.submit([&indices, t](size_t worker) { indices[t] = worker; });
        group.wait();
    }
    for (size_t index : indices)
        EXPECT_EQ(index, pool.threadCount()) << "ran inline";
    EXPECT_FALSE(unrelated_ran.load());
    EXPECT_EQ(pool.queueDepth(), 1u) << "the unrelated task stays queued";

    gate.open();
    pool.wait();
    EXPECT_TRUE(unrelated_ran.load());

    // With a free worker, group tasks split between it and the waiter;
    // the wait still returns only after every one of them has finished.
    ThreadPool wide(2);
    WorkerGate wide_gate;
    wide.submit(wide_gate.task());
    wide_gate.awaitEntered();
    std::atomic<int> finished{0};
    ThreadPool::Group group(wide);
    for (int t = 0; t < 16; ++t)
        group.submit([&finished](size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ++finished;
        });
    group.wait();
    EXPECT_EQ(finished.load(), 16);
    wide_gate.open();
    wide.wait();
}

TEST(Backpressure, TrySubmitRejectsExactlyWhenQueueIsFull)
{
    ThreadPool pool(1, /*maxQueued=*/3);
    EXPECT_EQ(pool.maxQueued(), 3u);
    WorkerGate gate;
    pool.submit(gate.task());
    gate.awaitEntered(); // worker busy, queue empty

    std::atomic<int> ran{0};
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(pool.trySubmit([&ran](size_t) { ++ran; }))
            << "queue slot " << i << " must be granted";
    EXPECT_EQ(pool.queueDepth(), 3u);
    // The documented reject-when-full contract: refusal leaves the task
    // un-enqueued, so nothing about the pool changes.
    EXPECT_FALSE(pool.trySubmit([&ran](size_t) { ++ran; }));
    EXPECT_EQ(pool.queueDepth(), 3u);

    gate.open();
    pool.wait();
    EXPECT_EQ(ran.load(), 3) << "accepted tasks run; the refused one not";
    // Draining frees the admission slots again.
    EXPECT_TRUE(pool.trySubmit([&ran](size_t) { ++ran; }));
    pool.wait();
    EXPECT_EQ(ran.load(), 4);
}

TEST(Backpressure, UnboundedSubmitIgnoresTheAdmissionBound)
{
    // Internal fan-out (Group tasks, stage chaining) goes through
    // plain submit and must never be refused, or a half-submitted job
    // would deadlock its own barrier.
    ThreadPool pool(1, /*maxQueued=*/1);
    WorkerGate gate;
    pool.submit(gate.task());
    gate.awaitEntered();
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&ran](size_t) { ++ran; });
    EXPECT_EQ(pool.queueDepth(), 8u);
    EXPECT_FALSE(pool.trySubmit([&ran](size_t) { ++ran; }));
    gate.open();
    pool.wait();
    EXPECT_EQ(ran.load(), 8);
}

TEST(Backpressure, ShutdownDrainsAcceptedTasks)
{
    std::atomic<int> ran{0};
    ThreadPool pool(2, /*maxQueued=*/64);
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(pool.trySubmit([&ran](size_t) { ++ran; }));
    pool.shutdown();
    EXPECT_EQ(ran.load(), 32) << "every accepted task runs before join";
    // Idempotent, and permanently closed afterwards.
    pool.shutdown();
    EXPECT_FALSE(pool.trySubmit([&ran](size_t) { ++ran; }));
    EXPECT_EQ(ran.load(), 32);
}

TEST(Backpressure, ConcurrentSubmitAndShutdownNeverLosesOrDoublesATask)
{
    // Producers hammer trySubmit while the owner shuts the pool down.
    // The contract: every task is either refused (runs zero times) or
    // accepted (runs exactly once) — no lost or double-run tasks.
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 64;
    std::array<std::atomic<int>, kProducers * kPerProducer> runs{};
    std::array<bool, kProducers * kPerProducer> accepted{};

    ThreadPool pool(2, /*maxQueued=*/8);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const int id = p * kPerProducer + i;
                accepted[id] = pool.trySubmit(
                    [&runs, id](size_t) { ++runs[id]; });
            }
        });
    // Shut down while the producers are mid-burst.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.shutdown();
    for (std::thread &t : producers)
        t.join();

    int accepted_count = 0;
    for (int id = 0; id < kProducers * kPerProducer; ++id) {
        EXPECT_EQ(runs[id].load(), accepted[id] ? 1 : 0)
            << "task " << id
            << (accepted[id] ? " was accepted but did not run exactly once"
                             : " was refused but ran anyway");
        accepted_count += accepted[id] ? 1 : 0;
    }
    // Sanity: the race window is real in both directions — some tasks
    // get in before the shutdown; ones submitted after it are refused.
    EXPECT_GE(accepted_count, 0);
}

TEST(Backpressure, QueueDepthTracksPressure)
{
    ThreadPool pool(1, /*maxQueued=*/16);
    EXPECT_EQ(pool.queueDepth(), 0u);
    WorkerGate gate;
    pool.submit(gate.task());
    gate.awaitEntered();
    // The gate task is *running*, not queued: depth counts waiting work
    // only (the admission pressure a service reports).
    EXPECT_EQ(pool.queueDepth(), 0u);
    for (size_t i = 1; i <= 5; ++i) {
        ASSERT_TRUE(pool.trySubmit([](size_t) {}));
        EXPECT_EQ(pool.queueDepth(), i);
    }
    gate.open();
    pool.wait();
    EXPECT_EQ(pool.queueDepth(), 0u);
}

// --- SweepEngine ----------------------------------------------------------

/** Reduced-size benchmark grid shared by the engine tests. */
std::vector<SweepJob>
smallGrid()
{
    FheParams fhe;
    fhe.logN = 13;
    fhe.levels = 8;
    fhe.dnum = 2;
    std::vector<SweepJob> jobs;
    const std::vector<HardwareConfig> configs = {
        HardwareConfig::asicEffact27(), HardwareConfig::fpgaEffact()};
    for (const HardwareConfig &hw : configs) {
        for (int preset = 0; preset < 3; ++preset) {
            CompilerOptions opts;
            switch (preset) {
              case 0: opts = Platform::baselineOptions(hw.sramBytes); break;
              case 1:
                opts = Platform::streamingOptions(hw.sramBytes);
                break;
              default: opts = Platform::fullOptions(hw.sramBytes); break;
            }
            SweepJob job;
            job.name = std::string(hw.name) + "/preset" +
                       std::to_string(preset);
            const size_t records = 32 + 32 * size_t(preset);
            job.build = [fhe, records] {
                return buildDbLookup(fhe, records);
            };
            job.hw = hw;
            job.copts = opts;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<SweepResult>
runGrid(size_t threads)
{
    SweepEngine engine({threads});
    for (SweepJob &job : smallGrid())
        engine.submit(std::move(job));
    return engine.runAll();
}

TEST(SweepEngine, ResultsArriveInSubmissionOrder)
{
    SweepEngine engine({4});
    std::vector<SweepJob> jobs = smallGrid();
    const size_t n = jobs.size();
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(engine.submit(std::move(jobs[i])), i);
    const std::vector<SweepResult> &results = engine.runAll();
    ASSERT_EQ(results.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[i].jobIndex, i);
        EXPECT_GT(results[i].platform.sim.cycles, 0.0) << results[i].name;
    }
    // Same grid serially: the engine's results match job for job.
    const std::vector<SweepResult> serial = runGrid(1);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[i].name, serial[i].name);
        EXPECT_DOUBLE_EQ(results[i].platform.sim.cycles,
                         serial[i].platform.sim.cycles);
    }
}

TEST(SweepEngine, SerialPathMatchesPlatformRun)
{
    // threads=1 must reproduce a plain Platform::run job for job.
    const std::vector<SweepResult> serial = runGrid(1);
    std::vector<SweepJob> jobs = smallGrid();
    ASSERT_EQ(serial.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        Workload w = jobs[i].build();
        Platform p(jobs[i].hw, jobs[i].copts);
        PlatformResult direct = p.run(w);
        EXPECT_DOUBLE_EQ(serial[i].platform.sim.cycles, direct.sim.cycles)
            << jobs[i].name;
        EXPECT_EQ(serial[i].platform.machineFingerprint,
                  direct.machineFingerprint)
            << jobs[i].name;
        EXPECT_DOUBLE_EQ(serial[i].platform.benchTimeMs,
                         direct.benchTimeMs)
            << jobs[i].name;
    }
}

/** Strips wall-clock keys (`*.ms.*`), the one nondeterministic stat. */
std::map<std::string, double>
deterministicAggregates(const StatSet &agg)
{
    std::map<std::string, double> out;
    for (const auto &[key, value] : agg.all())
        if (key.find(".ms.") == std::string::npos)
            out.emplace(key, value);
    return out;
}

TEST(SweepEngine, DeterministicAcrossThreadCounts)
{
    // The pinned guarantee: 1, 2 and 8 threads produce identical
    // simulated cycles, machine-code fingerprints and aggregates.
    SweepEngine serial({1}), two({2}), eight({8});
    for (SweepEngine *engine : {&serial, &two, &eight})
        for (SweepJob &job : smallGrid())
            engine->submit(std::move(job));

    const std::vector<SweepResult> &r1 = serial.runAll();
    const std::vector<SweepResult> &r2 = two.runAll();
    const std::vector<SweepResult> &r8 = eight.runAll();
    ASSERT_EQ(r1.size(), r2.size());
    ASSERT_EQ(r1.size(), r8.size());
    for (size_t i = 0; i < r1.size(); ++i) {
        for (const std::vector<SweepResult> *rs : {&r2, &r8}) {
            const SweepResult &other = (*rs)[i];
            EXPECT_EQ(other.name, r1[i].name);
            EXPECT_DOUBLE_EQ(other.platform.sim.cycles,
                             r1[i].platform.sim.cycles)
                << r1[i].name;
            EXPECT_DOUBLE_EQ(other.platform.sim.dramBytes,
                             r1[i].platform.sim.dramBytes)
                << r1[i].name;
            EXPECT_EQ(other.platform.machineFingerprint,
                      r1[i].platform.machineFingerprint)
                << r1[i].name;
            EXPECT_DOUBLE_EQ(other.platform.benchTimeMs,
                             r1[i].platform.benchTimeMs)
                << r1[i].name;
        }
    }

    const auto agg1 = deterministicAggregates(serial.aggregates());
    auto agg2 = deterministicAggregates(two.aggregates());
    auto agg8 = deterministicAggregates(eight.aggregates());
    // Thread count is recorded in the aggregates by design; align it
    // before demanding equality of everything else.
    agg2["sweep.threads"] = agg1.at("sweep.threads");
    agg8["sweep.threads"] = agg1.at("sweep.threads");
    EXPECT_EQ(agg1, agg2);
    EXPECT_EQ(agg1, agg8);
}

TEST(SweepEngine, DeterministicAcrossThreadCountsWithSharedCache)
{
    // The determinism guarantee must survive the shared compile cache
    // at any thread count *and any hit pattern*: which worker builds a
    // contested entry is racy, but single-flight entries are immutable
    // and replayed, so results and aggregates cannot tell. The uncached
    // serial run is the oracle.
    SweepEngine uncached({1});
    for (SweepJob &job : smallGrid())
        uncached.submit(std::move(job));
    const std::vector<SweepResult> &oracle = uncached.runAll();

    // smallGrid: two hardware configs over three presets; the workload
    // differs per preset, the hardware only in back-end knobs, so the
    // cache holds 3 entries for 6 jobs.
    std::map<std::string, double> first_agg;
    for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
        CompileCache cache;
        SweepEngine engine({threads, &cache});
        for (SweepJob &job : smallGrid())
            engine.submit(std::move(job));
        const std::vector<SweepResult> &cached = engine.runAll();

        ASSERT_EQ(cached.size(), oracle.size());
        for (size_t i = 0; i < oracle.size(); ++i) {
            EXPECT_DOUBLE_EQ(cached[i].platform.sim.cycles,
                             oracle[i].platform.sim.cycles)
                << oracle[i].name << " @" << threads;
            EXPECT_EQ(cached[i].platform.machineFingerprint,
                      oracle[i].platform.machineFingerprint)
                << oracle[i].name << " @" << threads;
            EXPECT_DOUBLE_EQ(cached[i].platform.benchTimeMs,
                             oracle[i].platform.benchTimeMs)
                << oracle[i].name << " @" << threads;
        }
        EXPECT_EQ(engine.aggregates().get("cache.lookups"), 6.0);
        EXPECT_EQ(engine.aggregates().get("cache.misses"), 3.0);
        EXPECT_EQ(engine.aggregates().get("cache.frontend_skipped"), 3.0);

        // Aggregates (wall-clock keys aside) are identical across
        // thread counts, cache.* included — hit totals don't depend on
        // which worker won a build race.
        auto agg = deterministicAggregates(engine.aggregates());
        agg["sweep.threads"] = 1.0;
        if (first_agg.empty())
            first_agg = agg;
        else
            EXPECT_EQ(first_agg, agg) << "threads=" << threads;
    }
}

TEST(SweepEngine, AggregatesSumMinMaxMean)
{
    SweepEngine engine({2});
    for (SweepJob &job : smallGrid())
        engine.submit(std::move(job));
    const std::vector<SweepResult> &results = engine.runAll();
    const StatSet &agg = engine.aggregates();

    EXPECT_EQ(agg.get("sweep.jobs"), double(results.size()));
    EXPECT_EQ(agg.get("sweep.threads"), 2.0);

    double sum = 0, mn = 0, mx = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const double c = results[i].platform.sim.cycles;
        sum += c;
        mn = i == 0 ? c : std::min(mn, c);
        mx = i == 0 ? c : std::max(mx, c);
    }
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.sum"), sum);
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.min"), mn);
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.max"), mx);
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.count"),
                     double(results.size()));
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.mean"),
                     sum / double(results.size()));

    // Per-pass compiler stats aggregate too: the full preset ran the
    // peephole on some jobs, so the key exists with a job count.
    EXPECT_TRUE(agg.has("compile.optimized.instructions.sum"));
    EXPECT_GT(agg.get("compile.optimized.instructions.count"), 0.0);
}

TEST(SweepEngine, MoreThreadsThanJobsIsFine)
{
    SweepEngine engine({16});
    FheParams fhe;
    fhe.logN = 12;
    fhe.levels = 6;
    fhe.dnum = 2;
    engine.submit("solo",
                  [fhe] { return buildDbLookup(fhe, 16); },
                  HardwareConfig::asicEffact27(),
                  Platform::fullOptions(HardwareConfig::asicEffact27()
                                            .sramBytes));
    const std::vector<SweepResult> &results = engine.runAll();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].platform.sim.cycles, 0.0);
}

// --- Verified, cached and external-pool sweeps -----------------------------

/** The serial oracle for a grid, with a forced verify level. */
std::vector<SweepResult>
serialOracle(const std::vector<SweepJob> &jobs, int verify_level = -1)
{
    SweepOptions o;
    o.threads = 1;
    o.verifyLevel = verify_level;
    SweepEngine engine(o);
    for (const SweepJob &job : jobs)
        engine.submit(job);
    return engine.runAll();
}

void
expectSameResults(const std::vector<SweepResult> &got,
                  const std::vector<SweepResult> &oracle,
                  const std::string &tag)
{
    ASSERT_EQ(got.size(), oracle.size()) << tag;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, oracle[i].name) << tag;
        EXPECT_DOUBLE_EQ(got[i].platform.sim.cycles,
                         oracle[i].platform.sim.cycles)
            << tag << " " << oracle[i].name;
        EXPECT_DOUBLE_EQ(got[i].platform.sim.dramBytes,
                         oracle[i].platform.sim.dramBytes)
            << tag << " " << oracle[i].name;
        EXPECT_EQ(got[i].platform.machineFingerprint,
                  oracle[i].platform.machineFingerprint)
            << tag << " " << oracle[i].name;
        EXPECT_DOUBLE_EQ(got[i].platform.benchTimeMs,
                         oracle[i].platform.benchTimeMs)
            << tag << " " << oracle[i].name;
    }
}

TEST(SweepEngine, EveryJobReportsEveryStageTiming)
{
    // Each job reports all four per-stage wall-clock keys, so the
    // aggregate counts are one per job — uncached and with a shared
    // cache alike.
    const std::vector<SweepJob> jobs = smallGrid();
    CompileCache cache;
    for (CompileCache *shared : {static_cast<CompileCache *>(nullptr),
                                 &cache}) {
        SweepOptions o;
        o.threads = 4;
        o.compileCache = shared;
        SweepEngine engine(o);
        for (const SweepJob &job : jobs)
            engine.submit(job);
        engine.runAll();
        const StatSet &agg = engine.aggregates();
        for (const char *key :
             {"job.ir.ms.count", "job.middle.ms.count",
              "job.backend.ms.count", "job.sim.ms.count"})
            EXPECT_EQ(agg.get(key), double(jobs.size()))
                << key << (shared ? " (cached)" : "");
    }
}

TEST(SweepEngine, VerifiedPresetSweepFourThreads)
{
    // All four Fig. 11 presets, fully checkpoint-verified, on 4
    // workers: verifier-clean and equal to the serial verified oracle.
    FheParams fhe;
    fhe.logN = 13;
    fhe.levels = 8;
    fhe.dnum = 2;
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    std::vector<SweepJob> jobs;
    const std::vector<std::pair<const char *, CompilerOptions>> presets =
        {{"baseline", Platform::baselineOptions(hw.sramBytes)},
         {"mad", Platform::madEnhancedOptions(hw.sramBytes)},
         {"streaming", Platform::streamingOptions(hw.sramBytes)},
         {"full", Platform::fullOptions(hw.sramBytes)}};
    for (const auto &[name, copts] : presets) {
        SweepJob job;
        job.name = name;
        job.build = [fhe] { return buildDbLookup(fhe, 48); };
        job.hw = hw;
        job.copts = copts;
        jobs.push_back(std::move(job));
    }
    const std::vector<SweepResult> oracle =
        serialOracle(jobs, /*verify_level=*/1);
    SweepOptions o;
    o.threads = 4;
    o.verifyLevel = 1;
    SweepEngine engine(o);
    for (const SweepJob &job : jobs)
        engine.submit(job);
    expectSameResults(engine.runAll(), oracle, "verified presets");
}

TEST(SweepEngine, SharedCacheFourThreadsStaysIdentical)
{
    // Shared compile cache on 4 workers: snapshots published by one
    // job's middle end replay bit-identically into the others.
    const std::vector<SweepJob> jobs = smallGrid();
    const std::vector<SweepResult> oracle = serialOracle(jobs);
    CompileCache cache;
    SweepOptions o;
    o.threads = 4;
    o.compileCache = &cache;
    SweepEngine engine(o);
    for (const SweepJob &job : jobs)
        engine.submit(job);
    expectSameResults(engine.runAll(), oracle, "cached, 4 threads");
    EXPECT_GT(cache.statsSnapshot().get("cache.hits"), 0.0);
}

TEST(SweepEngine, ExternalPoolMatchesPrivatePool)
{
    // A caller-owned long-lived pool (the service daemon's) must be
    // byte-identical to the engine's private per-run pool, and reusable
    // across consecutive batches without re-spawning workers.
    const std::vector<SweepJob> jobs = smallGrid();
    const std::vector<SweepResult> oracle = serialOracle(jobs);

    ThreadPool pool(4);
    CompileCache cache;
    for (int batch = 0; batch < 2; ++batch) {
        SweepOptions o;
        o.threads = 4;
        o.compileCache = &cache;
        o.pool = &pool;
        SweepEngine engine(o);
        for (const SweepJob &job : jobs)
            engine.submit(job);
        expectSameResults(engine.runAll(), oracle,
                          "external pool batch " + std::to_string(batch));
    }
    // The pool survives the engines and still accepts work.
    std::atomic<int> counter{0};
    pool.submit([&counter](size_t) { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
}

TEST(DefaultThreadCount, IsPositive)
{
    EXPECT_GE(defaultThreadCount(), 1u);
}

} // namespace
} // namespace effact
