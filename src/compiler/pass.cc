#include "compiler/pass.h"

#include <chrono>

#include "common/logging.h"
#include "compiler/compile_cache.h"
#include "compiler/pass_manager.h"
#include "verify/verify.h"

namespace effact {

namespace {

/** Runs `verify()` timed, accumulates the checkpoint stats, and panics
 *  via `enforceVerified` when the report is dirty. */
template <typename VerifyFn>
void
checkpoint(VerifyFn &&verify, const char *context, StatSet &stats)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    const VerifyReport rep = verify();
    const std::chrono::duration<double, std::milli> ms =
        Clock::now() - t0;
    stats.add("verify.checks", double(rep.checksRun));
    stats.add("verify.ms", ms.count());
    enforceVerified(rep, context);
}

} // namespace

MachineProgram
Compiler::compile(IrProgram &prog)
{
    AnalysisManager analyses;
    return compile(prog, analyses);
}

MachineProgram
Compiler::compile(IrProgram &prog, AnalysisManager &analyses)
{
    return compile(prog, analyses, nullptr);
}

MachineProgram
Compiler::compile(IrProgram &prog, AnalysisManager &analyses,
                  CompileCache *cache)
{
    compileMiddle(prog, analyses, cache);
    return compileBack(prog, analyses);
}

void
Compiler::compileMiddle(IrProgram &prog, AnalysisManager &analyses,
                        CompileCache *cache, CompileCacheKey *key_out)
{
    stats_.clear();
    if (cache == nullptr) {
        runMiddleEnd(prog, analyses, stats_);
        return;
    }

    // The cache key is computed over the *input* program; the build
    // below mutates it, so key first.
    const CompileCacheKey key = middleEndCacheKey(prog, opts_);
    if (key_out != nullptr)
        *key_out = key;
    bool hit = false;
    std::shared_ptr<const MiddleEndSnapshot> snap = cache->getOrBuild(
        key,
        [this, &prog, &analyses] {
            MiddleEndSnapshot built;
            runMiddleEnd(prog, analyses, built.stats);
            built.optimized = prog; // immutable copy (fresh uid)
            return built;
        },
        &hit);
    if (hit) {
        // Skip the whole optimization pipeline: adopt a clone of the
        // cached optimized IR. The clone's fresh uid keeps the caller's
        // analysis cache sound.
        prog = snap->optimized;
    }
    // Replaying the snapshot's stats (also on the miss path, where they
    // are exactly what runMiddleEnd just recorded) keeps hit and miss
    // compiles byte-identical except for the cache.hit marker.
    replay(*snap, hit);
}

void
Compiler::adoptSnapshot(const MiddleEndSnapshot &snap)
{
    stats_.clear();
    replay(snap, true);
}

void
Compiler::replay(const MiddleEndSnapshot &snap, bool hit)
{
    stats_.merge(snap.stats);
    stats_.set("cache.hit", hit ? 1 : 0);
}

MachineProgram
Compiler::compileBack(const IrProgram &prog, AnalysisManager &analyses)
{
    return runBackEnd(prog, analyses, stats_);
}

void
Compiler::runMiddleEnd(IrProgram &prog, AnalysisManager &analyses,
                       StatSet &stats) const
{
    const size_t before = prog.liveCount();
    stats.set("input.instructions", double(before));

    // Checkpoint the *input* too: a malformed builder/frontend program
    // should be reported against the frontend, not the first pass that
    // trips over it.
    if (opts_.verifyLevel > 0)
        checkpoint([&] { return verifyIr(prog); }, "middle-end input",
                   stats);

    // SSA optimizations: a declarative pipeline run to a bounded fixed
    // point. The repeat subsumes the old special-cased "copy-prop again
    // after the Eq. 5 peephole" cleanup and catches any second-order
    // reductions one sweep misses.
    PassManager pipeline = PassManager::fromSpec(
        opts_.pipeline.empty() ? pipelineSpecFromOptions(opts_)
                               : opts_.pipeline);
    pipeline.setMaxIterations(opts_.pipelineMaxIterations);
    pipeline.setVerifyLevel(opts_.verifyLevel);
    pipeline.run(prog, analyses, stats);
    EFFACT_ASSERT(pipeline.converged(),
                  "optimization pipeline '%s' did not converge in %zu "
                  "sweeps",
                  pipeline.spec().c_str(), pipeline.maxIterations());
    prog.compact();

    // The program leaving here is what a `CompileCache` snapshots and
    // replays into every later hit, so verify it one last time after
    // compaction (which renumbers every operand).
    if (opts_.verifyLevel > 0)
        checkpoint([&] { return verifyIr(prog); }, "middle-end output",
                   stats);

    const size_t after = prog.liveCount();
    stats.set("optimized.instructions", double(after));
    stats.set("optimized.reductionPct",
              before == 0 ? 0.0
                          : 100.0 * double(before - after) /
                                double(before));
}

MachineProgram
Compiler::runBackEnd(const IrProgram &prog, AnalysisManager &analyses,
                     StatSet &stats) const
{
    using Clock = std::chrono::steady_clock;
    using Ms = std::chrono::duration<double, std::milli>;
    const Clock::time_point t0 = Clock::now();
    auto order = runScheduler(prog, analyses, opts_, stats);
    const Clock::time_point t1 = Clock::now();
    auto streaming = runStreaming(prog, order, opts_.streaming,
                                  opts_.fifoDepth, stats);
    const Clock::time_point t2 = Clock::now();
    MachineProgram mp =
        runRegAllocAndCodegen(prog, order, streaming, opts_, stats);
    stats.set("backend.sched.ms", Ms(t1 - t0).count());
    stats.set("backend.stream.ms", Ms(t2 - t1).count());
    stats.set("backend.regalloc.ms", Ms(Clock::now() - t2).count());
    stats.set("machine.instructions", double(mp.insts.size()));
    // Post-backend checkpoint: the machine program handed to the
    // scheduler-graph builder and the simulator is well-formed (register
    // bounds, FIFO producer/consumer pairing, SRAM budget).
    if (opts_.verifyLevel > 0) {
        MachVerifyBudget budget;
        budget.sramBytes = opts_.sramBytes;
        checkpoint([&] { return verifyMachine(mp, budget); }, "back end",
                   stats);
    }
    return mp;
}

} // namespace effact
