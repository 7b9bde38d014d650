#include "runtime/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/env.h"
#include "common/logging.h"
#include "compiler/pass_manager.h"

namespace effact {

namespace {

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::duration<double, std::milli>;

/**
 * Runs one job start to finish. The job owns its `AnalysisManager`:
 * recipe-keyed jobs share one snapshot program (one uid), and a
 * manager reused across them would turn a later job's analysis builds
 * into cache hits, making `analysis.*` stats depend on which worker ran
 * which job.
 */
SweepResult
runJob(const SweepJob &job, size_t index, CompileCache *cache)
{
    EFFACT_ASSERT(job.build != nullptr, "sweep job '%s' has no workload",
                  job.name.c_str());
    AnalysisManager analyses;
    const Platform platform(job.hw, job.copts);
    SweepResult r;
    r.name = job.name;
    r.jobIndex = index;
    if (cache == nullptr || !job.recipe) {
        const Clock::time_point t0 = Clock::now();
        Workload workload = job.build();
        const double ir_ms = Ms(Clock::now() - t0).count();
        r.platform = platform.run(workload, analyses, cache);
        r.platform.jobStats.set("job.ir.ms", ir_ms);
        return r;
    }

    // Recipe path: the recipe hash keys the snapshot directly. A miss
    // builds the IR and moves the optimized program into the new entry;
    // a hit builds nothing. Either way the back end reads the shared
    // snapshot in place.
    Compiler compiler = platform.makeCompiler();
    const CompileCacheKey key{*job.recipe,
                              middleEndPresetHash(compiler.options())};
    double ir_ms = 0;
    bool hit = false;
    const Clock::time_point t0 = Clock::now();
    const std::shared_ptr<const MiddleEndSnapshot> snap = cache->getOrBuild(
        key,
        [&] {
            const Clock::time_point b0 = Clock::now();
            Workload workload = job.build();
            ir_ms = Ms(Clock::now() - b0).count();
            MiddleEndSnapshot built;
            compiler.runMiddleEnd(workload.program, analyses, built.stats);
            built.optimized = std::move(workload.program);
            built.info = workload;
            return built;
        },
        &hit);
    compiler.adoptSnapshot(*snap, hit);
    const double middle_ms = Ms(Clock::now() - t0).count() - ir_ms;
    r.platform = platform.runBack(compiler, snap->optimized, snap->info,
                                  analyses);
    r.platform.jobStats.set("job.ir.ms", ir_ms);
    r.platform.jobStats.set("job.middle.ms", middle_ms);
    return r;
}

/** Accumulates one value into `<key>.{sum,min,max,count}`. */
void
accumulate(StatSet &agg, const std::string &key, double value)
{
    agg.add(key + ".sum", value);
    agg.add(key + ".count", 1);
    const std::string min_key = key + ".min";
    const std::string max_key = key + ".max";
    if (!agg.has(min_key) || value < agg.get(min_key))
        agg.set(min_key, value);
    if (!agg.has(max_key) || value > agg.get(max_key))
        agg.set(max_key, value);
}

} // namespace

size_t
defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return envSize("EFFACT_THREADS", hw == 0 ? 1 : size_t(hw));
}

size_t
SweepEngine::submit(SweepJob job)
{
    EFFACT_ASSERT(!ran_, "submit after runAll");
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

size_t
SweepEngine::submit(std::string name, std::function<Workload()> build,
                    HardwareConfig hw, CompilerOptions copts)
{
    SweepJob job;
    job.name = std::move(name);
    job.build = std::move(build);
    job.hw = std::move(hw);
    job.copts = copts;
    return submit(std::move(job));
}

const std::vector<SweepResult> &
SweepEngine::runAll()
{
    EFFACT_ASSERT(!ran_, "runAll is one-shot per engine");
    ran_ = true;
    results_.resize(jobs_.size());

    // One fork-join: spawned workers and the calling thread claim job
    // indices from one counter and write disjoint result slots; the
    // joins are the only other synchronization. With no worker spawned
    // the caller runs every job in submission order.
    const size_t spawn = threads() > 1 && jobs_.size() > 1
                             ? std::min(threads(), jobs_.size())
                             : 0;
    workers_used_ = std::max<size_t>(spawn, 1);
    std::atomic<size_t> next{0};
    auto drain = [this, &next] {
        for (size_t i = next++; i < jobs_.size(); i = next++)
            results_[i] = runJob(jobs_[i], i, opts_.compileCache);
    };
    std::vector<std::thread> workers;
    workers.reserve(spawn);
    for (size_t w = 0; w < spawn; ++w)
        workers.emplace_back(drain);
    drain();
    for (std::thread &worker : workers)
        worker.join();

    // Aggregates from the ordered results on the calling thread:
    // deterministic accumulation order regardless of worker timing.
    aggregates_.clear();
    for (const SweepResult &r : results_) {
        for (const auto &[key, value] : r.platform.compilerStats.all())
            accumulate(aggregates_, "compile." + key, value);
        for (const auto &[key, value] : r.platform.sim.stats.all())
            accumulate(aggregates_, "sim." + key, value);
        for (const auto &[key, value] : r.platform.jobStats.all())
            accumulate(aggregates_, key, value); // already `job.`-prefixed
        accumulate(aggregates_, "platform.benchTimeMs",
                   r.platform.benchTimeMs);
        accumulate(aggregates_, "platform.dramGb", r.platform.dramGb);
        accumulate(aggregates_, "platform.cycles", r.platform.sim.cycles);
        accumulate(aggregates_, "platform.instructions",
                   double(r.platform.sim.instructions));
    }
    // Derive means once the sums are complete.
    std::vector<std::pair<std::string, double>> means;
    for (const auto &[key, value] : aggregates_.all()) {
        const size_t dot = key.rfind(".sum");
        if (dot == std::string::npos || dot + 4 != key.size())
            continue;
        const std::string base = key.substr(0, dot);
        const double count = aggregates_.get(base + ".count");
        if (count > 0)
            means.emplace_back(base + ".mean", value / count);
    }
    for (const auto &[key, value] : means)
        aggregates_.set(key, value);
    aggregates_.set("sweep.jobs", double(jobs_.size()));
    aggregates_.set("sweep.threads", double(workers_used_));
    // Shared-cache totals ride along under their own `cache.*` keys.
    // Cumulative for the cache's lifetime: a cache shared across
    // engines reports its running totals, not this batch's delta.
    if (opts_.compileCache != nullptr)
        aggregates_.merge(opts_.compileCache->statsSnapshot());
    return results_;
}

} // namespace effact
