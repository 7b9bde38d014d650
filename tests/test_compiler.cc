/**
 * @file
 * Compiler backend tests: each pass on hand-built programs, then the
 * whole pipeline on paper-scale workloads (invariants: no lost stores,
 * spills appear exactly when SRAM is short, streaming only with single
 * consumers).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "ir/workloads.h"

namespace effact {
namespace {

/** Builds a tiny program: load a, load b, t=a*b, u=t+a, store u. */
IrProgram
tinyProgram()
{
    IrProgram prog;
    prog.name = "tiny";
    prog.degree = 1 << 12;
    prog.lanes = 64;
    IrBuilder b(prog);
    int in = b.object("in", 2, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal bb = b.load(in, 1, 1);
    PolyVal t = b.mul(a, bb);
    PolyVal u = b.add(t, a);
    b.store(out, 0, u);
    return prog;
}

TEST(CopyProp, RemovesCopyChains)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 1, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    int c1 = b.emit1(IrOp::Copy, a.limbs[0], -1, 0);
    int c2 = b.emit1(IrOp::Copy, c1, -1, 0);
    int sum = b.emit1(IrOp::Add, c2, a.limbs[0], 0);
    b.store(out, 0, PolyVal{{sum}});

    StatSet stats;
    runCopyProp(prog, stats);
    EXPECT_EQ(stats.get("copyProp.removed"), 2);
    // The Add now reads the load directly.
    EXPECT_EQ(prog.insts[sum].a, a.limbs[0]);
}

TEST(ConstProp, FoldsIdentities)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 1, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal x1 = b.mulImm(a, 1); // x*1
    PolyVal x2 = b.addImm(x1, 0); // +0
    b.store(out, 0, x2);

    StatSet stats;
    runConstProp(prog, stats);
    EXPECT_EQ(stats.get("constProp.identityFolded"), 2);
}

TEST(ConstProp, ChainsImmediateMultiplies)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 1, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal x = b.mulImm(b.mulImm(a, 3), 5);
    b.store(out, 0, x);

    StatSet stats;
    runConstProp(prog, stats);
    EXPECT_EQ(stats.get("constProp.immChained"), 1);
    // The outer multiply now reads the load with imm 15.
    EXPECT_EQ(prog.insts[x.limbs[0]].imm, 15u);
    EXPECT_EQ(prog.insts[x.limbs[0]].a, a.limbs[0]);
}

TEST(Pre, RemovesRedundantComputation)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 2, false);
    int out = b.object("out", 2, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal c = b.load(in, 1, 1);
    PolyVal m1 = b.mul(a, c);
    PolyVal m2 = b.mul(a, c); // redundant
    b.store(out, 0, m1);
    b.store(out, 1, m2);

    StatSet stats;
    runPre(prog, stats);
    EXPECT_EQ(stats.get("pre.cseRemoved"), 1);
}

TEST(Pre, DeduplicatesReadOnlyLoads)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int key = b.object("key", 1, true);
    int in = b.object("in", 1, false);
    int out = b.object("out", 2, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal k1 = b.load(key, 0, 1);
    PolyVal k2 = b.load(key, 0, 1); // same key residue again
    b.store(out, 0, b.mul(a, k1));
    b.store(out, 1, b.mul(a, k2));

    StatSet stats;
    runPre(prog, stats);
    EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"), 1);
    // The two multiplies become one after VN (same operands).
    EXPECT_EQ(stats.get("pre.cseRemoved"), 1);
}

TEST(Pre, DoesNotMergeMutableLoads)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int buf = b.object("buf", 1, false);
    int out = b.object("out", 2, false);
    PolyVal l1 = b.load(buf, 0, 1);
    b.store(buf, 0, b.mulImm(l1, 3));
    PolyVal l2 = b.load(buf, 0, 1); // must NOT merge with l1
    b.store(out, 0, l2);

    StatSet stats;
    runPre(prog, stats);
    EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"), 0);
}

/** Value-numbering oracle for `runPre`: a `std::map` keyed by the
 *  operation, its forwarded operands (commutative pairs sorted), the
 *  immediate, the limb and, for read-only loads, the residue slot; then
 *  DCE run to a fixed point. */
struct RefPre
{
    std::vector<IrInst> insts;
    double cse = 0;
    double reload = 0;
    double dce = 0;
};

RefPre
referencePre(const IrProgram &prog)
{
    RefPre ref;
    ref.insts = prog.insts;
    std::vector<IrInst> &insts = ref.insts;
    const size_t n = insts.size();
    std::vector<int> fwd(n);
    for (size_t i = 0; i < n; ++i)
        fwd[i] = static_cast<int>(i);
    using Key = std::tuple<IrOp, int, int, int, u64, bool, uint32_t, int, int>;
    std::map<Key, int> first;
    for (size_t i = 0; i < n; ++i) {
        IrInst &inst = insts[i];
        if (inst.dead)
            continue;
        for (int *slot : inst.operandSlots())
            while (*slot >= 0 && fwd[*slot] != *slot)
                *slot = fwd[*slot];
        Key key;
        if (inst.op == IrOp::Load) {
            if (inst.mem.object < 0 || !prog.objects[inst.mem.object].readOnly)
                continue;
            key = Key{inst.op, -1, -1, -1, inst.useImm ? inst.imm : 0,
                      inst.useImm, inst.modulus, inst.mem.object,
                      inst.mem.index};
        } else if (inst.op == IrOp::Store || inst.op == IrOp::Copy) {
            continue;
        } else {
            int a = inst.a, b = inst.b;
            if ((inst.op == IrOp::Add || inst.op == IrOp::Mul) &&
                !inst.useImm && b < a)
                std::swap(a, b);
            const u64 imm =
                inst.op == IrOp::Auto || inst.useImm ? inst.imm : 0;
            key = Key{inst.op, a, b, inst.c, imm, inst.useImm,
                      inst.modulus, -1, 0};
        }
        const auto [it, inserted] = first.emplace(key, static_cast<int>(i));
        if (inserted)
            continue;
        fwd[i] = it->second;
        inst.dead = true;
        ++(inst.op == IrOp::Load ? ref.reload : ref.cse);
    }
    for (bool changed = true; changed;) {
        changed = false;
        std::vector<int> uses(n, 0);
        for (const IrInst &inst : insts)
            if (!inst.dead)
                for (int v : inst.operands())
                    if (v >= 0)
                        ++uses[v];
        for (size_t i = 0; i < n; ++i) {
            if (!insts[i].dead && insts[i].op != IrOp::Store && uses[i] == 0) {
                insts[i].dead = true;
                ++ref.dce;
                changed = true;
            }
        }
    }
    return ref;
}

/** Runs `runPre` and the oracle on `prog` and compares the dead set,
 *  every instruction's operands and the three `pre.*` stats. */
void
expectPreMatchesReference(IrProgram prog, const std::string &what)
{
    const RefPre ref = referencePre(prog);
    StatSet stats;
    runPre(prog, stats);
    ASSERT_EQ(prog.insts.size(), ref.insts.size()) << what;
    for (size_t i = 0; i < ref.insts.size(); ++i) {
        const IrInst &got = prog.insts[i];
        const IrInst &want = ref.insts[i];
        ASSERT_EQ(got.dead, want.dead) << what << " v" << i;
        ASSERT_EQ(got.operands(), want.operands()) << what << " v" << i;
    }
    EXPECT_EQ(stats.get("pre.cseRemoved"), ref.cse) << what;
    EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"), ref.reload) << what;
    EXPECT_EQ(stats.get("pre.deadCodeRemoved"), ref.dce) << what;
    EXPECT_EQ(prog.liveCount(),
              size_t(std::count_if(ref.insts.begin(), ref.insts.end(),
                                   [](const IrInst &x) { return !x.dead; })))
        << what;
}

TEST(Pre, FlatTableMatchesReferenceVn)
{
    std::mt19937 rng(4242);
    IrProgram prog;
    prog.degree = 1 << 10;
    const int key = prog.addObject("key", 8, true);
    const int buf = prog.addObject("buf", 8, false);
    const int out = prog.addObject("out", 4096, false);
    std::vector<int> values; // value-producing ids so far
    // Operands come from a small recent window, so the same operation
    // on the same values recurs often.
    auto pick = [&] {
        const size_t w = std::min<size_t>(values.size(), 6);
        return values[values.size() - 1 - rng() % w];
    };
    auto emit = [&](IrInst inst) {
        const int v = prog.emit(inst);
        if (inst.op != IrOp::Store)
            values.push_back(v);
    };
    auto load = [&](int obj) {
        IrInst inst;
        inst.op = IrOp::Load;
        inst.mem = MemRef{obj, static_cast<int>(rng() % 3)};
        inst.modulus = rng() % 2;
        emit(inst);
    };
    load(key);
    load(buf);
    int stores = 0;
    for (int step = 0; step < 4000; ++step) {
        IrInst inst;
        inst.modulus = rng() % 2;
        switch (rng() % 10) {
          case 0: load(key); continue; // read-only: merges
          case 1: load(buf); continue; // mutable: never merges
          case 2:
          case 3:
            inst.op = rng() % 2 ? IrOp::Add : IrOp::Mul;
            inst.a = pick();
            if (inst.op == IrOp::Mul && rng() % 3 == 0) {
                inst.useImm = true;
                inst.imm = 1 + rng() % 3;
            } else {
                inst.b = pick();
            }
            break;
          case 4:
            inst.op = IrOp::Sub;
            inst.a = pick();
            inst.b = pick();
            break;
          case 5:
            inst.op = IrOp::Mac;
            inst.a = pick();
            inst.b = pick();
            inst.c = pick();
            break;
          case 6:
            inst.op = rng() % 2 ? IrOp::Ntt : IrOp::Intt;
            inst.a = pick();
            break;
          case 7:
            inst.op = IrOp::Auto;
            inst.a = pick();
            inst.useImm = true;
            inst.imm = rng() % 2 ? 5 : 25;
            break;
          case 8:
            inst.op = IrOp::Copy;
            inst.a = pick();
            break;
          default:
            inst.op = IrOp::Store;
            inst.a = pick();
            inst.mem = MemRef{out, stores++};
            break;
        }
        emit(inst);
    }
    expectPreMatchesReference(prog, "mixed program");

    // Eight pure instructions size the table to its 16-slot minimum and
    // fill half of it; over many seeds some probe runs wrap past the
    // last slot.
    for (int seed = 0; seed < 200; ++seed) {
        IrProgram tiny;
        tiny.degree = 1 << 10;
        const int k = tiny.addObject("key", 4, true);
        for (int i = 0; i < 8; ++i) {
            IrInst inst;
            inst.modulus = rng() % 2;
            if (i < 4 || rng() % 2) {
                inst.op = IrOp::Load;
                inst.mem = MemRef{k, static_cast<int>(rng() % 4)};
            } else {
                inst.op = IrOp::Ntt;
                inst.a = static_cast<int>(rng() % i);
                if (tiny.insts[inst.a].op != IrOp::Load)
                    inst.a = 0;
            }
            tiny.emit(inst);
        }
        expectPreMatchesReference(tiny, "tiny seed " + std::to_string(seed));
    }
}

TEST(Peephole, FusesMulAddIntoMac)
{
    IrProgram prog = tinyProgram();
    StatSet stats;
    runPeephole(prog, stats);
    EXPECT_EQ(stats.get("peephole.macFused"), 1);
    // Find the Mac and check its three operands.
    bool found = false;
    for (const auto &inst : prog.insts) {
        if (!inst.dead && inst.op == IrOp::Mac) {
            found = true;
            EXPECT_GE(inst.c, 0);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Alias, OrdersSameLocationAccesses)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int buf = b.object("buf", 1, false);
    PolyVal l1 = b.load(buf, 0, 1);
    b.store(buf, 0, b.mulImm(l1, 3));
    PolyVal l2 = b.load(buf, 0, 1);
    b.store(buf, 0, b.mulImm(l2, 5));

    StatSet stats;
    auto edges = runAliasAnalysis(prog, stats);
    // WAR (load->store) x2, RAW (store->load), WAW (store->store).
    EXPECT_GE(edges.size(), 4u);
}

TEST(Scheduler, RespectsDependences)
{
    IrProgram prog = tinyProgram();
    StatSet stats;
    AnalysisManager analyses;
    auto order = runScheduler(prog, analyses, CompilerOptions{}, stats);
    ASSERT_EQ(order.size(), prog.liveCount());
    std::vector<int> pos(prog.insts.size(), -1);
    for (size_t k = 0; k < order.size(); ++k)
        pos[order[k]] = static_cast<int>(k);
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int operand : {inst.a, inst.b, inst.c})
            if (operand >= 0) {
                EXPECT_LT(pos[operand], pos[i]);
            }
    }
}

TEST(Streaming, SingleConsumerLoadsStream)
{
    IrProgram prog = tinyProgram(); // load b has a single use
    StatSet stats;
    AnalysisManager analyses;
    auto order = runScheduler(prog, analyses, CompilerOptions{}, stats);
    auto info = runStreaming(prog, order, true, 96, stats);
    EXPECT_GE(stats.get("stream.loads"), 1);
    // Load of `a` has two consumers -> must not stream.
    EXPECT_EQ(info.streamedLoad[0] + info.streamedLoad[1], 1);
}

TEST(Streaming, DisabledMeansNothingStreams)
{
    IrProgram prog = tinyProgram();
    StatSet stats;
    AnalysisManager analyses;
    auto order = runScheduler(prog, analyses, CompilerOptions{}, stats);
    auto info = runStreaming(prog, order, false, 96, stats);
    for (auto v : info.streamedLoad)
        EXPECT_EQ(v, 0);
}

TEST(Compiler, EndToEndTinyProgram)
{
    IrProgram prog = tinyProgram();
    Compiler compiler;
    MachineProgram mp = compiler.compile(prog);
    EXPECT_GT(mp.insts.size(), 0u);
    // Exactly one STORE_RES reaches the output object.
    size_t stores = 0;
    for (const auto &mi : mp.insts)
        stores += mi.op == Opcode::STORE_RES ? 1 : 0;
    EXPECT_EQ(stores, 1u);
}

TEST(Compiler, SmallSramForcesSpills)
{
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 16;
    fhe.dnum = 4;
    Workload w = buildBootstrapping(fhe, {256, 2, 2, 63, 8});

    CompilerOptions tight;
    tight.sramBytes = size_t(2) << 20; // 2 MB: ~16 registers
    Compiler c1(tight);
    IrProgram p1 = w.program;
    MachineProgram m1 = c1.compile(p1);

    CompilerOptions roomy;
    roomy.sramBytes = size_t(512) << 20;
    Compiler c2(roomy);
    IrProgram p2 = w.program;
    MachineProgram m2 = c2.compile(p2);

    EXPECT_GT(m1.spillLoads, m2.spillLoads);
    EXPECT_EQ(m2.spillLoads, 0u);
}

TEST(Compiler, SpilledValuesCountEachSpillOnce)
{
    // Forty squares of mutable inputs, each read once early and once
    // late, so all of them are live across the program while every
    // load dies at its square. Each spilled computed value gets exactly
    // one spill store (only read-only loads rematerialize, and there
    // are none), so the spilled-value count must equal the spill-store
    // count. Program order (no scheduling) keeps every load's interval
    // one instruction long, so no load is ever the spill victim.
    IrProgram prog;
    prog.name = "spill_pressure";
    prog.degree = 1 << 12;
    prog.lanes = 64;
    IrBuilder b(prog);
    constexpr int kInputs = 40;
    const int in = b.object("in", kInputs, false);
    const int out = b.object("out", 1, false);
    std::vector<PolyVal> squares;
    for (int i = 0; i < kInputs; ++i) {
        const PolyVal x = b.load(in, i, 1);
        squares.push_back(b.mul(x, x));
    }
    PolyVal acc = squares[0];
    for (int i = 1; i < kInputs; ++i)
        acc = b.add(acc, squares[i]);
    for (int i = 0; i < kInputs; ++i)
        acc = b.mul(acc, squares[i]);
    b.store(out, 0, acc);

    for (const char *policy : {"linear", "priority"}) {
        CompilerOptions opts;
        opts.schedule = false;
        opts.streaming = false;
        opts.pipeline = "copyprop,constprop,pre";
        opts.regalloc = policy;
        opts.sramBytes = size_t(8) * prog.degree * 8; // 8 registers
        Compiler compiler(opts);
        IrProgram p = prog;
        const MachineProgram mp = compiler.compile(p);
        const StatSet &stats = compiler.stats();
        EXPECT_GT(mp.spillStores, 0u) << policy;
        EXPECT_EQ(stats.get("regalloc.spilledValues"),
                  double(mp.spillStores))
            << policy;
        EXPECT_EQ(stats.get("regalloc.spillStores"), double(mp.spillStores))
            << policy;
    }
}

TEST(Compiler, OptimizationReducesInstructionCount)
{
    // The paper reports its code optimizer removes 12.9% of the
    // fully-packed bootstrapping instructions; ours must achieve a
    // substantial reduction too (exact value depends on lowering).
    FheParams fhe;
    fhe.logN = 15;
    fhe.levels = 16;
    fhe.dnum = 4;
    Workload w = buildBootstrapping(fhe, {1024, 3, 2, 127, 8});
    Compiler compiler;
    compiler.compile(w.program);
    EXPECT_GT(compiler.stats().get("optimized.reductionPct"), 10.0);
}

TEST(Compiler, DisassemblyIsReadable)
{
    IrProgram prog = tinyProgram();
    Compiler compiler;
    MachineProgram mp = compiler.compile(prog);
    std::string text = disassemble(mp);
    EXPECT_NE(text.find("LoadRes"), std::string::npos);
    EXPECT_NE(text.find("StoreRes"), std::string::npos);
}

} // namespace
} // namespace effact
