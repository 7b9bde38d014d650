#include "platform/platform.h"

#include <chrono>

#include "compiler/pass_manager.h"

namespace effact {

namespace {

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::duration<double, std::milli>;

} // namespace

Platform::Platform(HardwareConfig hw, CompilerOptions copts)
    : hw_(std::move(hw)), copts_(copts)
{
    copts_.sramBytes = hw_.sramBytes;
    copts_.issueWindow = hw_.issueWindow;
    copts_.lanes = hw_.lanes;
    copts_.hbmBytesPerCycle = hw_.hbmBytesPerCycle();
}

PlatformResult
Platform::run(Workload &workload) const
{
    AnalysisManager analyses;
    return run(workload, analyses);
}

PlatformResult
Platform::run(Workload &workload, AnalysisManager &analyses) const
{
    return run(workload, analyses, nullptr);
}

PlatformResult
Platform::run(Workload &workload, AnalysisManager &analyses,
              CompileCache *cache) const
{
    Compiler compiler = makeCompiler();
    const Clock::time_point t0 = Clock::now();
    compiler.compileMiddle(workload.program, analyses, cache);
    const double middle_ms = Ms(Clock::now() - t0).count();
    PlatformResult result =
        runBack(compiler, workload.program, workload, analyses);
    result.jobStats.set("job.middle.ms", middle_ms);
    return result;
}

PlatformResult
Platform::runBack(Compiler &compiler, const IrProgram &prog,
                  const WorkloadInfo &info, AnalysisManager &analyses) const
{
    const Clock::time_point t0 = Clock::now();
    MachineProgram mp = compiler.compileBack(prog, analyses);
    const Clock::time_point t1 = Clock::now();
    SimReport sim = simulate(mp);
    const Clock::time_point t2 = Clock::now();

    PlatformResult result = assemble(compiler, mp, info, std::move(sim));
    result.jobStats.set("job.backend.ms", Ms(t1 - t0).count());
    result.jobStats.set("job.sim.ms", Ms(t2 - t1).count());
    return result;
}

SimReport
Platform::simulate(const MachineProgram &mp) const
{
    Simulator sim(hw_);
    return sim.run(mp);
}

PlatformResult
Platform::assemble(const Compiler &compiler, const MachineProgram &mp,
                   const WorkloadInfo &info, SimReport sim) const
{
    PlatformResult result;
    result.sim = std::move(sim);
    result.compilerStats = compiler.stats();
    result.benchTimeMs = result.sim.timeMs * info.repeat;
    result.amortizedUs = result.benchTimeMs * 1e3 / info.amortizeFactor;
    result.dramGb = result.sim.dramBytes * info.repeat / 1e9;
    const Clock::time_point t0 = Clock::now();
    result.machineFingerprint = fingerprint(mp);
    result.jobStats.set("job.fingerprint.ms", Ms(Clock::now() - t0).count());
    return result;
}

// Each Fig. 11 design point is one declarative pipeline spec plus its
// back-end switches.

CompilerOptions
Platform::baselineOptions(size_t sram_bytes)
{
    CompilerOptions o;
    o.pipeline = "";
    o.schedule = false;
    o.streaming = false;
    o.sramBytes = sram_bytes;
    return o;
}

CompilerOptions
Platform::madEnhancedOptions(size_t sram_bytes)
{
    // MAD's caching keeps reused data on chip (PRE models the reuse of
    // keys/constants) but schedules data paths by hand within HE
    // primitives: no global scheduling or streaming.
    CompilerOptions o;
    o.pipeline = "copyprop,constprop,pre";
    o.schedule = false;
    o.streaming = false;
    o.sramBytes = sram_bytes;
    return o;
}

CompilerOptions
Platform::streamingOptions(size_t sram_bytes)
{
    CompilerOptions o;
    o.pipeline = "copyprop,constprop,pre";
    o.schedule = true;
    o.streaming = true;
    o.sramBytes = sram_bytes;
    return o;
}

CompilerOptions
Platform::fullOptions(size_t sram_bytes)
{
    CompilerOptions o;
    o.pipeline = "copyprop,constprop,pre,peephole";
    o.sramBytes = sram_bytes;
    return o;
}

CompilerOptions
Platform::optimizedOptions(size_t sram_bytes)
{
    // rotalg runs before PRE so composed rotations are canonical when
    // value numbering looks for duplicates; the fixed point re-runs the
    // sequence anyway, so the order only affects sweep count.
    CompilerOptions o;
    o.pipeline = "copyprop,constprop,rotalg,pre,peephole";
    o.regalloc = "priority";
    o.scheduler = "latency";
    o.sramBytes = sram_bytes;
    return o;
}

} // namespace effact
