#include "compiler/pass.h"

#include <unordered_map>

namespace effact {

namespace {

/** Hash key for value numbering. */
struct VnKey
{
    uint8_t op;
    int a;
    int b;
    int c; ///< Mac accumulator (-1 otherwise)
    u64 imm;
    uint8_t use_imm;
    uint32_t modulus;
    int mem_obj;
    int mem_idx;

    bool operator==(const VnKey &o) const
    {
        return op == o.op && a == o.a && b == o.b && c == o.c &&
               imm == o.imm && use_imm == o.use_imm &&
               modulus == o.modulus && mem_obj == o.mem_obj &&
               mem_idx == o.mem_idx;
    }
};

struct VnKeyHash
{
    size_t
    operator()(const VnKey &k) const
    {
        size_t h = k.op;
        h = h * 1000003 + static_cast<size_t>(k.a + 1);
        h = h * 1000003 + static_cast<size_t>(k.b + 1);
        h = h * 1000003 + static_cast<size_t>(k.c + 1);
        h = h * 1000003 + static_cast<size_t>(k.imm);
        h = h * 1000003 + k.use_imm;
        h = h * 1000003 + k.modulus;
        h = h * 1000003 + static_cast<size_t>(k.mem_obj + 1);
        h = h * 1000003 + static_cast<size_t>(k.mem_idx);
        return h;
    }
};

bool
commutative(IrOp op)
{
    return op == IrOp::Add || op == IrOp::Mul;
}

/** Builds the VN key from an instruction's current operand values;
 *  returns false for impure instructions (stores, mutable loads). */
bool
makeKey(const IrProgram &prog, const IrInst &inst, VnKey &key)
{
    key = VnKey{};
    key.op = static_cast<uint8_t>(inst.op);
    key.c = -1;
    key.modulus = inst.modulus;
    key.imm = inst.useImm ? inst.imm : 0;
    key.use_imm = inst.useImm;
    key.mem_obj = -1;
    key.mem_idx = 0;
    switch (inst.op) {
      case IrOp::Mul:
      case IrOp::Add:
      case IrOp::Sub:
      case IrOp::Mac:
      case IrOp::Ntt:
      case IrOp::Intt:
      case IrOp::Auto:
        key.a = inst.a;
        key.b = inst.b;
        key.c = inst.c;
        if (commutative(inst.op) && !inst.useImm && key.b < key.a)
            std::swap(key.a, key.b);
        if (inst.op == IrOp::Auto)
            key.imm = inst.imm;
        return true;
      case IrOp::Load:
        if (inst.mem.object >= 0 &&
            prog.objects[inst.mem.object].readOnly) {
            key.a = -1;
            key.b = -1;
            key.mem_obj = inst.mem.object;
            key.mem_idx = inst.mem.index;
            return true;
        }
        return false;
      default:
        return false;
    }
}

/** Dead-code elimination: retires every unused non-Store instruction,
 *  cascading through operands in one reverse scan. */
size_t
runDce(IrProgram &prog)
{
    std::vector<uint32_t> uses(prog.insts.size(), 0);
    for (const auto &inst : prog.insts) {
        if (inst.dead)
            continue;
        for (int operand : inst.operands())
            if (operand >= 0)
                ++uses[operand];
    }
    size_t dce = 0;
    for (size_t i = prog.insts.size(); i-- > 0;) {
        IrInst &inst = prog.insts[i];
        if (inst.dead || inst.op == IrOp::Store || uses[i] != 0)
            continue;
        inst.dead = true;
        ++dce;
        // A use count hitting zero is handled when the reverse loop
        // reaches the defining instruction.
        for (int operand : inst.operands())
            if (operand >= 0)
                --uses[operand];
    }
    return dce;
}

struct CseCounts
{
    size_t cse = 0;
    size_t reload = 0;
};

/** Common-subexpression elimination: one ascending value-numbering
 *  scan that forwards every duplicate to its first occurrence. */
CseCounts
runCse(IrProgram &prog)
{
    // Value numbering over the SSA program (the dominator structure of a
    // straight-line program is trivial, so hash-based VN subsumes the
    // PRE of [15,32,36] here). Loads from read-only objects (keys,
    // plaintext constants) are pure and participate; mutable loads and
    // stores do not.
    std::unordered_map<VnKey, int, VnKeyHash> table;
    table.reserve(prog.insts.size());
    std::vector<int> fwd(prog.insts.size());
    for (size_t i = 0; i < fwd.size(); ++i)
        fwd[i] = static_cast<int>(i);
    auto resolve = [&](int v) {
        while (v >= 0 && fwd[v] != v)
            v = fwd[v];
        return v;
    };

    CseCounts counts;
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int *slot : inst.operandSlots())
            if (*slot >= 0)
                *slot = resolve(*slot);
        VnKey key;
        if (!makeKey(prog, inst, key))
            continue;
        auto [it, inserted] = table.emplace(key, static_cast<int>(i));
        if (!inserted) {
            fwd[i] = it->second;
            inst.dead = true;
            if (inst.op == IrOp::Load)
                ++counts.reload;
            else
                ++counts.cse;
        }
    }
    return counts;
}

} // namespace

size_t
runPre(IrProgram &prog, StatSet &stats)
{
    const CseCounts counts = runCse(prog);
    // Dead-code elimination: anything unused that is not a Store.
    const size_t dce = runDce(prog);

    stats.add("pre.cseRemoved", double(counts.cse));
    stats.add("pre.readOnlyReloadsRemoved", double(counts.reload));
    stats.add("pre.deadCodeRemoved", double(dce));
    return counts.cse + counts.reload + dce;
}

} // namespace effact
