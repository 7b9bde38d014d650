/**
 * @file
 * Correctness suite for the hardware-split compile cache: the
 * content-addressed `IrProgram` fingerprint, the preset half of the
 * key (hardware knobs excluded, everything else included), single-
 * flight hit/miss accounting, and the central soundness claim — a
 * cache hit is byte-identical to the uncached compile it replaces,
 * including when the cache is shared across 8 concurrent workers — and
 * the recipe memo in front of it (zero-copy hits, eviction, single
 * flight, recipe-field separation).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compile_cache.h"
#include "compiler/pass_manager.h"
#include "runtime/sweep.h"
#include "service/service.h"

namespace effact {
namespace {

FheParams
smallFhe()
{
    FheParams fhe;
    fhe.logN = 13;
    fhe.levels = 8;
    fhe.dnum = 2;
    return fhe;
}

/** Per-compile stats minus wall-clock and cache-marker keys, for
 *  comparing a hit compile against an uncached one. */
std::map<std::string, double>
comparableStats(const StatSet &stats)
{
    std::map<std::string, double> out;
    for (const auto &[key, value] : stats.all()) {
        if (key.rfind("cache.", 0) == 0)
            continue;
        if (key.size() >= 3 && key.compare(key.size() - 3, 3, ".ms") == 0)
            continue;
        out.emplace(key, value);
    }
    return out;
}

// --- IrProgram fingerprint ------------------------------------------------

TEST(IrFingerprint, IdenticalBuildsHashEqualDespiteDistinctUids)
{
    Workload a = buildDbLookup(smallFhe(), 32);
    Workload b = buildDbLookup(smallFhe(), 32);
    ASSERT_NE(a.program.uid(), b.program.uid());
    EXPECT_EQ(fingerprint(a.program), fingerprint(b.program));
}

TEST(IrFingerprint, ContentAndOrderSensitive)
{
    Workload base = buildDbLookup(smallFhe(), 32);
    const uint64_t fp = fingerprint(base.program);

    Workload tweaked = buildDbLookup(smallFhe(), 32);
    ASSERT_FALSE(tweaked.program.insts.empty());
    tweaked.program.insts.front().imm += 1;
    EXPECT_NE(fingerprint(tweaked.program), fp);

    Workload swapped = buildDbLookup(smallFhe(), 32);
    ASSERT_GE(swapped.program.insts.size(), 2u);
    std::swap(swapped.program.insts[0], swapped.program.insts[1]);
    EXPECT_NE(fingerprint(swapped.program), fp)
        << "fingerprint must be order-sensitive";
}

TEST(IrFingerprint, IgnoresDisplayOnlyNames)
{
    Workload a = buildDbLookup(smallFhe(), 32);
    Workload b = buildDbLookup(smallFhe(), 32);
    b.program.name = "renamed";
    if (!b.program.objects.empty())
        b.program.objects.front().name = "renamed-object";
    EXPECT_EQ(fingerprint(a.program), fingerprint(b.program));
}

// --- MachineProgram fingerprint -------------------------------------------

/** The reference definition: FNV-1a over all 8 bytes of every field,
 *  low byte first. */
uint64_t
bytewiseFnv1a(const MachineProgram &prog)
{
    uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](u64 v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (byte * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    mix(prog.insts.size());
    mix(prog.numRegs);
    mix(prog.residueBytes);
    mix(prog.spillLoads);
    mix(prog.spillStores);
    mix(prog.streamedOps);
    for (const MachInst &mi : prog.insts) {
        mix(static_cast<u64>(mi.op));
        for (const Operand *o : {&mi.dest, &mi.src0, &mi.src1, &mi.src2}) {
            mix(static_cast<u64>(o->kind));
            mix(static_cast<u64>(static_cast<int64_t>(o->reg)));
            mix(o->value);
            mix(o->dram ? 1 : 0);
        }
        mix(mi.modulus);
        mix(mi.imm);
        mix(mi.hbmAddr);
        mix(static_cast<u64>(static_cast<int64_t>(mi.irId)));
    }
    return h;
}

TEST(MachineFingerprint, MatchesBytewiseFnv1a)
{
    std::mt19937_64 rng(1404);
    // Values of every byte length, with zero bytes inside and on top.
    auto value = [&rng]() -> u64 {
        switch (rng() % 6) {
          case 0: return 0;
          case 1: return ~0ull;
          case 2: return rng() % 256;
          case 3: return rng() >> (rng() % 64);
          case 4: return u64(rng() % 256) << (8 * (rng() % 8));
          default: return rng() & 0xff00ff0000ff00ffULL;
        }
    };
    // Besides the stock shapes, near-constant operands that differ from
    // the None operand (kind 0, reg -1, value 0, dram 0) in one field,
    // so a shortcut taken on a partial match cannot pass.
    auto operand = [&]() {
        Operand o;
        switch (rng() % 8) {
          case 0: break; // the None operand
          case 1: o = Operand::regOp(static_cast<int>(rng() % 300)); break;
          case 2: o = Operand::stream(value(), rng() % 2 == 0); break;
          case 3: o = Operand::imm(value()); break;
          case 4: o.value = value() | 1; break;   // None, value set
          case 5: o.dram = true; break;           // None, dram set
          case 6: o = Operand::regOp(-1); break;  // Reg, reg -1
          default: o.reg = static_cast<int>(rng() % 300); break; // None
        }
        return o;
    };
    for (int trial = 0; trial < 50; ++trial) {
        MachineProgram mp;
        mp.numRegs = value();
        mp.residueBytes = size_t(1) << (rng() % 20);
        mp.spillLoads = value();
        mp.spillStores = value();
        mp.streamedOps = value();
        const size_t n = rng() % 200;
        for (size_t i = 0; i < n; ++i) {
            MachInst mi;
            mi.op = static_cast<Opcode>(rng() % 10);
            mi.dest = operand();
            mi.src0 = operand();
            mi.src1 = operand();
            mi.src2 = operand();
            mi.modulus = static_cast<uint32_t>(value());
            mi.imm = value();
            mi.hbmAddr = (rng() % 4096) * mp.residueBytes; // multi-byte
            mi.irId = rng() % 8 == 0 ? -1 : static_cast<int>(rng() % 100000);
            mp.insts.push_back(mi);
        }
        ASSERT_EQ(fingerprint(mp), bytewiseFnv1a(mp)) << "trial " << trial;
    }
    EXPECT_EQ(fingerprint(MachineProgram{}), bytewiseFnv1a(MachineProgram{}));
}

TEST(MachineFingerprint, ConstantRunTablesMatchBytewiseFnv1a)
{
    // Bytewise FNV-1a over `bytes`, starting from state h.
    auto fnv = [](uint64_t h, const std::vector<uint8_t> &bytes) {
        for (uint8_t byte : bytes) {
            h ^= byte;
            h *= 1099511628211ULL;
        }
        return h;
    };
    std::vector<uint8_t> none(32, 0);
    std::fill(none.begin() + 8, none.begin() + 16, 0xff);
    const std::vector<uint8_t> minus_one(8, 0xff);
    std::mt19937_64 rng(15);
    // Every low-byte state, under zero, all-ones and random high bits.
    for (uint64_t high : {uint64_t(0), ~uint64_t(0), u64(rng()), u64(rng())}) {
        for (uint64_t low = 0; low < 256; ++low) {
            const uint64_t h = (high & ~uint64_t(0xff)) | low;
            ASSERT_EQ(fingerprintNoneOperand(h), fnv(h, none)) << h;
            ASSERT_EQ(fingerprintMinusOne(h), fnv(h, minus_one)) << h;
        }
    }
}

// --- Preset hash ----------------------------------------------------------

TEST(PresetHash, HardwareKnobsAreExcluded)
{
    // The hardware split: options differing only in the knobs Platform
    // derives from HardwareConfig must share a middle-end key.
    CompilerOptions a = Platform::fullOptions(size_t(27) << 20);
    CompilerOptions b = Platform::fullOptions(size_t(13) << 20);
    b.issueWindow = a.issueWindow * 2;
    EXPECT_EQ(middleEndPresetHash(a), middleEndPresetHash(b));
}

TEST(PresetHash, PresetsKeySeparately)
{
    const size_t sram = size_t(27) << 20;
    const std::vector<CompilerOptions> presets = {
        Platform::baselineOptions(sram), Platform::madEnhancedOptions(sram),
        Platform::streamingOptions(sram), Platform::fullOptions(sram)};
    for (size_t i = 0; i < presets.size(); ++i)
        for (size_t j = i + 1; j < presets.size(); ++j)
            EXPECT_NE(middleEndPresetHash(presets[i]),
                      middleEndPresetHash(presets[j]))
                << "presets " << i << " and " << j
                << " must not share a cache entry (MAD-enhanced and "
                   "streaming share a pipeline spec but differ in "
                   "back-end switches, which are part of the preset "
                   "identity)";
}

TEST(PresetHash, ExplicitPipelineEqualsDerivedPipeline)
{
    CompilerOptions derived; // all four switches on, empty spec
    CompilerOptions explicit_spec;
    explicit_spec.pipeline = pipelineSpecFromOptions(derived);
    EXPECT_EQ(middleEndPresetHash(derived),
              middleEndPresetHash(explicit_spec));
}

// --- Cache behavior -------------------------------------------------------

TEST(CompileCache, StructurallyIdenticalProgramsHit)
{
    CompileCache cache;
    Compiler compiler(Platform::fullOptions(size_t(27) << 20));
    AnalysisManager analyses;

    Workload first = buildDbLookup(smallFhe(), 32);
    MachineProgram mp1 =
        compiler.compile(first.program, analyses, &cache);
    EXPECT_EQ(compiler.stats().get("cache.hit"), 0.0);

    // A different program object with the same content (different uid,
    // freshly counted version) must hit.
    Workload second = buildDbLookup(smallFhe(), 32);
    MachineProgram mp2 =
        compiler.compile(second.program, analyses, &cache);
    EXPECT_EQ(compiler.stats().get("cache.hit"), 1.0);
    EXPECT_EQ(fingerprint(mp1), fingerprint(mp2));

    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.lookups"), 2.0);
    EXPECT_EQ(cs.get("cache.hits"), 1.0);
    EXPECT_EQ(cs.get("cache.misses"), 1.0);
    EXPECT_EQ(cs.get("cache.frontend_skipped"), 1.0);
    EXPECT_EQ(cs.get("cache.entries"), 1.0);
}

TEST(CompileCache, MutationAfterCachingMisses)
{
    CompileCache cache;
    Compiler compiler(Platform::fullOptions(size_t(27) << 20));
    AnalysisManager analyses;

    Workload cached = buildDbLookup(smallFhe(), 32);
    compiler.compile(cached.program, analyses, &cache);
    ASSERT_EQ(cache.statsSnapshot().get("cache.misses"), 1.0);

    // Mutate a rebuilt copy the way a pass would: rewrite in place and
    // bump the version. The content fingerprint moves with it, so the
    // stale entry cannot be served.
    Workload mutated = buildDbLookup(smallFhe(), 32);
    const uint64_t version_before = mutated.program.version();
    ASSERT_FALSE(mutated.program.insts.empty());
    mutated.program.insts.front().imm += 1;
    mutated.program.bumpVersion();
    EXPECT_GT(mutated.program.version(), version_before);

    compiler.compile(mutated.program, analyses, &cache);
    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.lookups"), 2.0);
    EXPECT_EQ(cs.get("cache.misses"), 2.0)
        << "a mutated program must not reuse the pre-mutation entry";
    EXPECT_EQ(cs.get("cache.entries"), 2.0);
}

TEST(CompileCache, DifferentPresetsDoNotShareEntries)
{
    CompileCache cache;
    AnalysisManager analyses;
    Workload a = buildDbLookup(smallFhe(), 32);
    Workload b = buildDbLookup(smallFhe(), 32);

    Compiler full(Platform::fullOptions(size_t(27) << 20));
    Compiler baseline(Platform::baselineOptions(size_t(27) << 20));
    full.compile(a.program, analyses, &cache);
    baseline.compile(b.program, analyses, &cache);

    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.lookups"), 2.0);
    EXPECT_EQ(cs.get("cache.hits"), 0.0);
    EXPECT_EQ(cs.get("cache.entries"), 2.0);
}

TEST(CompileCache, HitIsByteIdenticalToUncachedCompile)
{
    // Two hardware points of the same (workload, preset): the second
    // compile hits the first's middle-end snapshot, and everything it
    // produces — machine code, simulated cycles, compiler stats modulo
    // wall-clock and the cache marker — matches an uncached compile.
    const HardwareConfig hw27 = HardwareConfig::asicEffact27();
    HardwareConfig hw13 = hw27;
    hw13.sramBytes = size_t(13) << 20;

    CompileCache cache;
    AnalysisManager analyses;
    Platform p27(hw27, Platform::fullOptions(hw27.sramBytes));
    Platform p13(hw13, Platform::fullOptions(hw13.sramBytes));

    Workload w27 = buildDbLookup(smallFhe(), 64);
    Workload w13 = buildDbLookup(smallFhe(), 64);
    const PlatformResult cached27 = p27.run(w27, analyses, &cache);
    const PlatformResult cached13 = p13.run(w13, analyses, &cache);
    EXPECT_EQ(cached13.compilerStats.get("cache.hit"), 1.0);
    EXPECT_EQ(cache.statsSnapshot().get("cache.misses"), 1.0);

    Workload u27 = buildDbLookup(smallFhe(), 64);
    Workload u13 = buildDbLookup(smallFhe(), 64);
    AnalysisManager fresh27, fresh13;
    const PlatformResult plain27 = p27.run(u27, fresh27);
    const PlatformResult plain13 = p13.run(u13, fresh13);

    EXPECT_EQ(cached27.machineFingerprint, plain27.machineFingerprint);
    EXPECT_EQ(cached13.machineFingerprint, plain13.machineFingerprint);
    EXPECT_DOUBLE_EQ(cached13.sim.cycles, plain13.sim.cycles);
    EXPECT_DOUBLE_EQ(cached13.sim.dramBytes, plain13.sim.dramBytes);
    EXPECT_EQ(comparableStats(cached13.compilerStats),
              comparableStats(plain13.compilerStats));
    // The two hardware points genuinely differ — the cache did not
    // leak back-end results across configs.
    EXPECT_NE(cached27.machineFingerprint, cached13.machineFingerprint);
}

TEST(CompileCache, ClearResetsEntriesAndCounters)
{
    CompileCache cache;
    Compiler compiler(Platform::fullOptions(size_t(27) << 20));
    AnalysisManager analyses;
    Workload w = buildDbLookup(smallFhe(), 32);
    compiler.compile(w.program, analyses, &cache);
    ASSERT_EQ(cache.entryCount(), 1u);

    cache.clear();
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.statsSnapshot().get("cache.lookups"), 0.0);

    Workload again = buildDbLookup(smallFhe(), 32);
    compiler.compile(again.program, analyses, &cache);
    EXPECT_EQ(cache.statsSnapshot().get("cache.misses"), 1.0);
}

// --- Shared across workers ------------------------------------------------

/** The preset x hardware grid shared by the worker tests: 12 jobs over
 *  4 presets x 3 SRAM budgets of one workload — the `bench_fig11_
 *  ablation` shape at test scale. Exactly 4 distinct middle-end keys. */
std::vector<SweepJob>
presetSramGrid()
{
    const FheParams fhe = smallFhe();
    std::vector<SweepJob> jobs;
    const std::vector<size_t> sram_points = {
        size_t(27) << 20, size_t(13) << 20, size_t(54) << 20};
    CompilerOptions (*const presets[])(size_t) = {
        Platform::baselineOptions, Platform::madEnhancedOptions,
        Platform::streamingOptions, Platform::fullOptions};
    for (size_t s = 0; s < sram_points.size(); ++s) {
        for (size_t p = 0; p < 4; ++p) {
            HardwareConfig hw = HardwareConfig::asicEffact27();
            hw.sramBytes = sram_points[s];
            SweepJob job;
            job.name = "sram" + std::to_string(s) + "/preset" +
                       std::to_string(p);
            job.build = [fhe] { return buildDbLookup(fhe, 64); };
            job.hw = hw;
            job.copts = presets[p](sram_points[s]);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(CompileCache, SharedAcrossEightWorkersMatchesUncachedSerial)
{
    SweepEngine uncached({1});
    for (SweepJob &job : presetSramGrid())
        uncached.submit(std::move(job));
    const std::vector<SweepResult> &plain = uncached.runAll();

    CompileCache cache;
    SweepEngine engine({8, &cache});
    for (SweepJob &job : presetSramGrid())
        engine.submit(std::move(job));
    const std::vector<SweepResult> &cached = engine.runAll();

    ASSERT_EQ(cached.size(), plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(cached[i].name, plain[i].name);
        EXPECT_DOUBLE_EQ(cached[i].platform.sim.cycles,
                         plain[i].platform.sim.cycles)
            << plain[i].name;
        EXPECT_DOUBLE_EQ(cached[i].platform.sim.dramBytes,
                         plain[i].platform.sim.dramBytes)
            << plain[i].name;
        EXPECT_EQ(cached[i].platform.machineFingerprint,
                  plain[i].platform.machineFingerprint)
            << plain[i].name;
        EXPECT_DOUBLE_EQ(cached[i].platform.benchTimeMs,
                         plain[i].platform.benchTimeMs)
            << plain[i].name;
        EXPECT_EQ(comparableStats(cached[i].platform.compilerStats),
                  comparableStats(plain[i].platform.compilerStats))
            << plain[i].name;
    }
}

TEST(CompileCache, SingleFlightBuildCountsAreExactAtAnyThreadCount)
{
    for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
        CompileCache cache;
        SweepEngine engine({threads, &cache});
        for (SweepJob &job : presetSramGrid())
            engine.submit(std::move(job));
        engine.runAll();

        const StatSet cs = cache.statsSnapshot();
        EXPECT_EQ(cs.get("cache.lookups"), 12.0) << threads;
        // One middle-end run per preset, never more (single-flight) and
        // never fewer (presets key separately), racy or not.
        EXPECT_EQ(cs.get("cache.misses"), 4.0) << threads;
        EXPECT_EQ(cs.get("cache.hits"), 8.0) << threads;
        EXPECT_EQ(cs.get("cache.frontend_skipped"), 8.0) << threads;
        EXPECT_EQ(cs.get("cache.entries"), 4.0) << threads;
        // The engine mirrors the totals into its aggregates.
        EXPECT_EQ(engine.aggregates().get("cache.misses"), 4.0);
        EXPECT_EQ(engine.aggregates().get("compile.cache.hit.sum"), 8.0);
    }
}

// --- Bounded LRU ----------------------------------------------------------

/** Synthetic entries of identical accounted size (same name length,
 *  same inst/stat counts) but distinguishable content, so byte-budget
 *  arithmetic in the tests is exact: budget = K * entry bytes holds
 *  exactly K entries. */
CompileCacheKey
synthKey(uint64_t i)
{
    return {i + 1, 0x5eed};
}

MiddleEndSnapshot
synthSnapshot(uint64_t i)
{
    MiddleEndSnapshot snap;
    snap.optimized.name = "synthetic-lru-entry";
    snap.optimized.insts.resize(4);
    snap.optimized.insts[0].imm = i;
    snap.stats.set("synthetic.id", double(i));
    return snap;
}

TEST(BoundedLru, SnapshotBytesAreContentDeterministic)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    ASSERT_GT(entry, 0u);
    // Same content (even rebuilt) accounts the same bytes; the id field
    // changes the content, not the size.
    EXPECT_EQ(snapshotBytes(synthSnapshot(0)), entry);
    EXPECT_EQ(snapshotBytes(synthSnapshot(7)), entry);
    // More payload means more bytes.
    MiddleEndSnapshot bigger = synthSnapshot(0);
    bigger.optimized.insts.resize(8);
    EXPECT_GT(snapshotBytes(bigger), entry);
}

TEST(BoundedLru, ZeroBudgetNeverEvicts)
{
    CompileCache cache; // legacy default: unbounded
    EXPECT_EQ(cache.byteBudget(), 0u);
    for (uint64_t i = 0; i < 32; ++i)
        cache.getOrBuild(synthKey(i), [i] { return synthSnapshot(i); });
    EXPECT_EQ(cache.entryCount(), 32u);
    EXPECT_EQ(cache.evictionCount(), 0u);
}

TEST(BoundedLru, EvictsLeastRecentlyUsedFirst)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(3 * entry);
    for (uint64_t i = 0; i < 3; ++i)
        cache.getOrBuild(synthKey(i), [i] { return synthSnapshot(i); });
    ASSERT_EQ(cache.entryCount(), 3u);
    EXPECT_EQ(cache.evictionCount(), 0u);

    // Touch key 0 (a hit is a recency event), then publish a fourth
    // entry: the untouched key 1 is now least recently used and must be
    // the one evicted — not the oldest-inserted key 0.
    bool hit = false;
    cache.getOrBuild(synthKey(0), [] { return synthSnapshot(0); }, &hit);
    EXPECT_TRUE(hit);
    cache.getOrBuild(synthKey(3), [] { return synthSnapshot(3); });
    EXPECT_EQ(cache.evictionCount(), 1u);
    EXPECT_EQ(cache.entryCount(), 3u);

    int builds = 0;
    auto probe = [&](uint64_t i) {
        bool h = false;
        cache.getOrBuild(
            synthKey(i),
            [&builds, i] {
                ++builds;
                return synthSnapshot(i);
            },
            &h);
        return h;
    };
    EXPECT_TRUE(probe(0)) << "the touched key must survive";
    EXPECT_TRUE(probe(3));
    EXPECT_TRUE(probe(2));
    EXPECT_EQ(builds, 0);
    EXPECT_FALSE(probe(1)) << "the LRU victim must be the untouched key";
    EXPECT_EQ(builds, 1);
}

TEST(BoundedLru, BytesAccountingMatchesPayloads)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(2 * entry);
    EXPECT_EQ(cache.currentBytes(), 0u);

    cache.getOrBuild(synthKey(0), [] { return synthSnapshot(0); });
    EXPECT_EQ(cache.currentBytes(), entry);
    cache.getOrBuild(synthKey(1), [] { return synthSnapshot(1); });
    EXPECT_EQ(cache.currentBytes(), 2 * entry);
    cache.getOrBuild(synthKey(2), [] { return synthSnapshot(2); });
    EXPECT_EQ(cache.currentBytes(), 2 * entry)
        << "the third publish must evict exactly one entry's bytes";
    EXPECT_EQ(cache.evictionCount(), 1u);

    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.bytes"), double(2 * entry));
    EXPECT_EQ(cs.get("cache.budget_bytes"), double(2 * entry));
    EXPECT_EQ(cs.get("cache.evictions"), 1.0);
    EXPECT_EQ(cs.get("cache.entries"), 2.0);

    cache.clear();
    EXPECT_EQ(cache.currentBytes(), 0u);
    EXPECT_EQ(cache.evictionCount(), 0u);
}

TEST(BoundedLru, EntryLargerThanBudgetIsServedThenDropped)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(entry / 2);
    bool hit = true;
    const auto snap = cache.getOrBuild(
        synthKey(0), [] { return synthSnapshot(0); }, &hit);
    EXPECT_FALSE(hit);
    ASSERT_NE(snap, nullptr);
    // The requester's snapshot is intact even though the store already
    // dropped the entry (it can never retain more than the budget).
    EXPECT_EQ(snap->stats.get("synthetic.id"), 0.0);
    EXPECT_EQ(snap->optimized.name, "synthetic-lru-entry");
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.currentBytes(), 0u);
    EXPECT_EQ(cache.evictionCount(), 1u);
}

TEST(BoundedLru, EvictedKeyRebuildsExactlyOnceUnderContention)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(entry); // holds exactly one entry
    cache.getOrBuild(synthKey(7), [] { return synthSnapshot(7); });
    cache.getOrBuild(synthKey(8), [] { return synthSnapshot(8); });
    ASSERT_EQ(cache.evictionCount(), 1u); // key 7 is gone

    // Eight threads re-request the evicted key concurrently: a fresh
    // single-flight build, so exactly one rebuild — and every requester
    // gets a valid clone of it.
    std::atomic<int> rebuilds{0};
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const MiddleEndSnapshot>> got(8);
    for (size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            got[t] = cache.getOrBuild(synthKey(7), [&rebuilds] {
                ++rebuilds;
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                return synthSnapshot(7);
            });
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(rebuilds.load(), 1);
    for (const auto &snap : got) {
        ASSERT_NE(snap, nullptr);
        EXPECT_EQ(snap->stats.get("synthetic.id"), 7.0);
    }
}

TEST(BoundedLru, WaitersSurviveImmediateEviction)
{
    // Budget below one entry: every publish evicts its own entry right
    // after the waiters are released. The waiters' shared_ptr keeps the
    // snapshot alive; nobody observes a dangling or empty result.
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(entry / 2);
    std::atomic<int> builds{0};
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const MiddleEndSnapshot>> got(8);
    for (size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            got[t] = cache.getOrBuild(synthKey(1), [&builds] {
                ++builds;
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                return synthSnapshot(1);
            });
        });
    for (std::thread &th : threads)
        th.join();
    // Requesters that arrive after an eviction rebuild (a fresh miss),
    // so the build count is 1..8 depending on timing — but every
    // requester must hold valid content, and the store must end empty.
    EXPECT_GE(builds.load(), 1);
    EXPECT_LE(builds.load(), 8);
    for (const auto &snap : got) {
        ASSERT_NE(snap, nullptr);
        EXPECT_EQ(snap->stats.get("synthetic.id"), 1.0);
    }
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.currentBytes(), 0u);
    EXPECT_EQ(cache.evictionCount(), uint64_t(builds.load()));
}

TEST(BoundedLru, EvictionStatsDeterministicAcrossThreadCounts)
{
    // 12 distinct keys, each requested exactly once, budget = 4 entries:
    // published = 12, kept = 4, so evictions = 8 and bytes = 4 * entry
    // no matter how the publishes interleave.
    const size_t entry = snapshotBytes(synthSnapshot(0));
    constexpr uint64_t kKeys = 12;
    constexpr size_t kKeep = 4;
    for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
        CompileCache cache(kKeep * entry);
        {
            ThreadPool pool(threads);
            for (uint64_t i = 0; i < kKeys; ++i)
                pool.submit([&cache, i](size_t) {
                    cache.getOrBuild(synthKey(i),
                                     [i] { return synthSnapshot(i); });
                });
            pool.wait();
        }
        const StatSet cs = cache.statsSnapshot();
        EXPECT_EQ(cs.get("cache.evictions"), double(kKeys - kKeep))
            << threads;
        EXPECT_EQ(cs.get("cache.bytes"), double(kKeep * entry)) << threads;
        EXPECT_EQ(cs.get("cache.entries"), double(kKeep)) << threads;
        EXPECT_EQ(cs.get("cache.misses"), double(kKeys)) << threads;
        EXPECT_EQ(cs.get("cache.hits"), 0.0) << threads;
    }
}

TEST(BoundedLru, SweepWithTinyBudgetMatchesUncachedSerial)
{
    // Eviction pressure must never change compile results: a budget far
    // below one real snapshot forces a rebuild for effectively every
    // job, and the sweep still matches the uncached serial oracle.
    SweepEngine uncached({1});
    for (SweepJob &job : presetSramGrid())
        uncached.submit(std::move(job));
    const std::vector<SweepResult> &plain = uncached.runAll();

    CompileCache cache(size_t(4) << 10);
    SweepEngine engine({4, &cache});
    for (SweepJob &job : presetSramGrid())
        engine.submit(std::move(job));
    const std::vector<SweepResult> &bounded = engine.runAll();

    EXPECT_GE(cache.evictionCount(), 1u)
        << "the tiny budget must actually evict";
    ASSERT_EQ(bounded.size(), plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(bounded[i].platform.machineFingerprint,
                  plain[i].platform.machineFingerprint)
            << plain[i].name;
        EXPECT_DOUBLE_EQ(bounded[i].platform.sim.cycles,
                         plain[i].platform.sim.cycles)
            << plain[i].name;
        EXPECT_EQ(comparableStats(bounded[i].platform.compilerStats),
                  comparableStats(plain[i].platform.compilerStats))
            << plain[i].name;
    }
}

// --- Recipe memo -----------------------------------------------------------

/** A memo build that publishes `synthSnapshot(i)` under `synthKey(i)`
 *  and records it, counting its runs. */
std::function<RecipeMemo()>
synthRecipeBuild(CompileCache &cache, uint64_t i, std::atomic<int> &builds)
{
    return [&cache, i, &builds] {
        ++builds;
        cache.getOrBuild(synthKey(i), [i] { return synthSnapshot(i); });
        RecipeMemo memo;
        memo.snapshot = synthKey(i);
        memo.info.repeat = double(i);
        return memo;
    };
}

TEST(RecipeMemo, SecondRequestHitsWithoutBuilding)
{
    CompileCache cache;
    std::atomic<int> builds{0};
    const RecipeKey key{42, 0x5eed};
    WorkloadInfo info;
    EXPECT_EQ(cache.getOrBuildRecipe(key, synthRecipeBuild(cache, 3, builds),
                                     &info),
              nullptr);
    const std::shared_ptr<const MiddleEndSnapshot> snap =
        cache.getOrBuildRecipe(key, synthRecipeBuild(cache, 3, builds),
                               &info);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(snap->stats.get("synthetic.id"), 3.0);
    EXPECT_EQ(info.repeat, 3.0);

    // The memo hit counts like a snapshot hit, plus its own counter.
    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.lookups"), 2.0);
    EXPECT_EQ(cs.get("cache.hits"), 1.0);
    EXPECT_EQ(cs.get("cache.misses"), 1.0);
    EXPECT_EQ(cs.get("cache.frontend_skipped"), 1.0);
    EXPECT_EQ(cs.get("cache.recipe_hits"), 1.0);

    // Another preset half is another memo entry.
    EXPECT_EQ(cache.getOrBuildRecipe({42, 0xbeef},
                                     synthRecipeBuild(cache, 3, builds),
                                     &info),
              nullptr);
    EXPECT_EQ(builds.load(), 2);

    // clear() drops the memo along with the snapshots.
    cache.clear();
    EXPECT_EQ(cache.statsSnapshot().get("cache.recipe_hits"), 0.0);
    EXPECT_EQ(cache.getOrBuildRecipe(key, synthRecipeBuild(cache, 3, builds),
                                     &info),
              nullptr);
    EXPECT_EQ(builds.load(), 3);
}

TEST(RecipeMemo, EvictedSnapshotRebuildsAndMemoNeverHoldsIt)
{
    // Budget below one entry: the snapshot is evicted right after it
    // is published, and the memo (which holds only its key) must not
    // serve it again — the next request rebuilds.
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(entry / 2);
    std::atomic<int> builds{0};
    const RecipeKey key{7, 0x5eed};
    WorkloadInfo info;
    for (int round = 0; round < 3; ++round)
        EXPECT_EQ(cache.getOrBuildRecipe(
                      key, synthRecipeBuild(cache, 1, builds), &info),
                  nullptr)
            << round;
    EXPECT_EQ(builds.load(), 3);
    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.misses"), 3.0);
    EXPECT_EQ(cs.get("cache.recipe_hits"), 0.0);
    EXPECT_EQ(cs.get("cache.entries"), 0.0);
}

TEST(RecipeMemo, StaleEntriesArePrunedUnderABudget)
{
    // A budget of one snapshot and 200 distinct recipes: the memo must
    // not keep an entry per recipe ever seen, only ones it can serve
    // (plus slack up to the next prune).
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(entry);
    std::atomic<int> builds{0};
    WorkloadInfo info;
    for (uint64_t r = 0; r < 200; ++r)
        cache.getOrBuildRecipe({r, 0x5eed},
                               synthRecipeBuild(cache, r, builds), &info);
    EXPECT_EQ(builds.load(), 200);
    EXPECT_LE(cache.statsSnapshot().get("cache.recipe_entries"), 64.0);
    // The one recipe whose snapshot is still stored is still served.
    EXPECT_NE(cache.getOrBuildRecipe({199, 0x5eed},
                                     synthRecipeBuild(cache, 199, builds),
                                     &info),
              nullptr);
    EXPECT_EQ(builds.load(), 200);
}

TEST(RecipeMemo, SingleFlightUnderContention)
{
    // Eight threads request one recipe at once: one build, seven memo
    // hits, every requester served the same snapshot.
    CompileCache cache;
    std::atomic<int> builds{0};
    std::vector<std::thread> threads;
    std::atomic<int> hits{0};
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            WorkloadInfo info;
            const auto slow_build = [&cache, &builds] {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                return synthRecipeBuild(cache, 5, builds)();
            };
            const auto snap =
                cache.getOrBuildRecipe({9, 0x5eed}, slow_build, &info);
            if (snap != nullptr) {
                EXPECT_EQ(snap->stats.get("synthetic.id"), 5.0);
                EXPECT_EQ(info.repeat, 5.0);
                ++hits;
            }
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(hits.load(), 7);
    EXPECT_EQ(cache.statsSnapshot().get("cache.recipe_hits"), 7.0);
    EXPECT_EQ(cache.statsSnapshot().get("cache.lookups"), 8.0);
}

TEST(RecipeMemo, RequestsDifferingInOneRecipeFieldNeverShareAnEntry)
{
    // Each variant changes exactly one recipe field of the base
    // request; none may be served from another's memo entry.
    ServiceRequest base;
    base.workload = "dblookup";
    base.fhe = smallFhe();
    base.param = 32;
    base.hw = HardwareConfig::asicEffact27();
    base.copts = Platform::fullOptions(base.hw.sramBytes);
    base.verifyLevel = 0;
    std::vector<ServiceRequest> variants(5, base);
    variants[1].fhe.levels += 1;
    variants[2].fhe.dnum += 2;
    variants[3].fhe.lanes /= 2;
    variants[4].param += 1;

    std::vector<uint64_t> hashes;
    for (const ServiceRequest &req : variants)
        hashes.push_back(recipeHash(workloadRecipe(req)));
    for (size_t i = 0; i < hashes.size(); ++i)
        for (size_t j = i + 1; j < hashes.size(); ++j)
            EXPECT_NE(hashes[i], hashes[j]) << i << " vs " << j;

    ServiceOptions opts;
    opts.threads = 1;
    ServiceCore core(opts);
    for (const ServiceRequest &req : variants)
        core.submit(req);
    core.flush();
    EXPECT_EQ(core.statsSnapshot().get("cache.recipe_hits"), 0.0);

    // Resubmitted at another SRAM size, each variant hits its own entry
    // and matches its own uncached compile.
    ServiceCore oracle(oracleOptions(opts));
    for (ServiceRequest req : variants) {
        req.hw.sramBytes = size_t(13) << 20;
        core.submit(req);
        oracle.submit(req);
    }
    std::vector<ServiceResult> hit = core.flush();
    std::vector<ServiceResult> ref = oracle.flush();
    EXPECT_EQ(core.statsSnapshot().get("cache.recipe_hits"),
              double(variants.size()));
    ASSERT_EQ(hit.size(), ref.size());
    for (size_t i = 0; i < hit.size(); ++i) {
        hit[i].seq = ref[i].seq = 0; // the cores numbered differently
        EXPECT_EQ(canonicalResultBytes(hit[i]), canonicalResultBytes(ref[i]))
            << "variant " << i;
    }
}

TEST(RecipeMemo, SerialRecipeJobsKeepUncachedAnalysisStats)
{
    // Three jobs of one recipe in the serial engine: the second and
    // third read the first's snapshot in place (one shared uid), yet
    // every job's `analysis.*` counts — and all its other compiler
    // stats — equal the uncached compile's.
    auto grid = [] {
        std::vector<SweepJob> jobs;
        for (size_t mb : {27, 13, 54}) {
            SweepJob job;
            job.name = "sram" + std::to_string(mb);
            job.build = [] { return buildDbLookup(smallFhe(), 48); };
            job.recipe = 0xdb48;
            job.hw = HardwareConfig::asicEffact27();
            job.hw.sramBytes = mb << 20;
            job.copts = Platform::fullOptions(job.hw.sramBytes);
            jobs.push_back(std::move(job));
        }
        return jobs;
    };
    SweepEngine uncached({1});
    for (SweepJob &job : grid())
        uncached.submit(std::move(job));
    const std::vector<SweepResult> &plain = uncached.runAll();

    CompileCache cache;
    SweepEngine engine({1, &cache});
    for (SweepJob &job : grid())
        engine.submit(std::move(job));
    const std::vector<SweepResult> &memo = engine.runAll();
    EXPECT_EQ(cache.statsSnapshot().get("cache.recipe_hits"), 2.0);

    ASSERT_EQ(memo.size(), plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        const StatSet &got = memo[i].platform.compilerStats;
        const StatSet &want = plain[i].platform.compilerStats;
        size_t analysis_keys = 0;
        for (const auto &[key, value] : want.all()) {
            if (key.rfind("analysis.", 0) != 0)
                continue;
            ++analysis_keys;
            EXPECT_EQ(got.get(key), value) << plain[i].name << " " << key;
        }
        EXPECT_GT(analysis_keys, 0u);
        EXPECT_EQ(comparableStats(got), comparableStats(want))
            << plain[i].name;
        EXPECT_EQ(memo[i].platform.machineFingerprint,
                  plain[i].platform.machineFingerprint)
            << plain[i].name;
        EXPECT_DOUBLE_EQ(memo[i].platform.sim.cycles,
                         plain[i].platform.sim.cycles)
            << plain[i].name;
    }
}

} // namespace
} // namespace effact
