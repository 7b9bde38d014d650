#include "runtime/sweep.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "compiler/pass_manager.h"

namespace effact {

namespace {

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::duration<double, std::milli>;

/**
 * Runs one job start to finish. The job owns its `AnalysisManager`:
 * recipe hits share one snapshot program (one uid) across jobs, and a
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

    // Recipe path: a memo hit builds no IR and reads the shared
    // snapshot in place; a miss is the ordinary path above, recorded in
    // the memo for the next job of this recipe.
    Compiler compiler = platform.makeCompiler();
    const RecipeKey key{*job.recipe, middleEndPresetHash(compiler.options())};
    std::optional<Workload> workload;
    WorkloadInfo info;
    double ir_ms = 0;
    const Clock::time_point t0 = Clock::now();
    const std::shared_ptr<const MiddleEndSnapshot> snap =
        cache->getOrBuildRecipe(
            key,
            [&] {
                const Clock::time_point b0 = Clock::now();
                workload.emplace(job.build());
                ir_ms = Ms(Clock::now() - b0).count();
                RecipeMemo memo;
                compiler.compileMiddle(workload->program, analyses, cache,
                                       &memo.snapshot);
                memo.info = *workload;
                return memo;
            },
            &info);
    if (snap != nullptr)
        compiler.adoptSnapshot(*snap);
    const double middle_ms = Ms(Clock::now() - t0).count() - ir_ms;
    r.platform = snap != nullptr
                     ? platform.runBack(compiler, snap->optimized, info,
                                        analyses)
                     : platform.runBack(compiler, workload->program,
                                        *workload, analyses);
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
SweepEngine::submit(SweepJob job)
{
    EFFACT_ASSERT(!ran_, "submit after runAll");
    if (opts_.verifyLevel >= 0)
        job.copts.verifyLevel = opts_.verifyLevel;
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

    const size_t want = threads();
    if (want <= 1 || jobs_.size() <= 1) {
        // Serial path: submission order on the calling thread.
        workers_used_ = 1;
        for (size_t i = 0; i < jobs_.size(); ++i)
            results_[i] = runJob(jobs_[i], i, opts_.compileCache);
    } else {
        const size_t n_workers = std::min(want, jobs_.size());
        workers_used_ = n_workers;
        // An external pool arrives pre-sized by its owner.
        std::optional<ThreadPool> owned;
        ThreadPool *pool = opts_.pool;
        if (pool == nullptr) {
            owned.emplace(n_workers);
            pool = &*owned;
        }
        // Workers write disjoint result slots, so the only
        // synchronization is the pool's queue and the group barrier.
        ThreadPool::Group group(*pool);
        for (size_t i = 0; i < jobs_.size(); ++i) {
            group.submit([this, i](size_t) {
                results_[i] = runJob(jobs_[i], i, opts_.compileCache);
            });
        }
        group.wait();
    }

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
