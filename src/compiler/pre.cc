#include "compiler/pass.h"

#include <algorithm>
#include <array>

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

/** 64-bit finalizer (MurmurHash3 fmix64): every input bit reaches the
 *  low bits the table masks with and the high bits it tags with. */
u64
fmix64(u64 h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

/** Hash over the key's fields (its raw bytes include padding). */
u64
hashKey(const VnKey &k)
{
    constexpr u64 kMul = 0x9e3779b97f4a7c15ULL;
    u64 h = k.op | u64(k.use_imm) << 8 | u64(k.modulus) << 32;
    h = (h ^ (u64(uint32_t(k.a)) | u64(uint32_t(k.b)) << 32)) * kMul;
    h = (h ^ (u64(uint32_t(k.c)) | u64(uint32_t(k.mem_obj)) << 32)) * kMul;
    h = (h ^ k.imm) * kMul;
    h = (h ^ uint32_t(k.mem_idx)) * kMul;
    return fmix64(h);
}

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
        prog.kill(inst);
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

/**
 * Flat open-addressing value table: one 8-byte slot per entry (32-bit
 * hash tag, value id), linear probing, sized once to a power of two at
 * least twice the instruction count, so it is at most half full and a
 * probe always ends at an empty slot. A tag hit is confirmed by
 * rebuilding the winner's key: a winner's operands are final once it is
 * inserted (later scans only forward values defined after it).
 */
class VnTable
{
  public:
    explicit VnTable(size_t insts)
    {
        size_t cap = 16;
        while (cap < 2 * insts)
            cap *= 2;
        slots_.assign(cap, Slot{0, -1});
        mask_ = cap - 1;
    }

    /** Hints the home slot of `hash` into the cache. */
    void prefetchSlot(u64 hash) const
    {
        __builtin_prefetch(&slots_[hash & mask_]);
    }

    /** Reads the home slot of `hash` and, on a tag hit, hints the
     *  instruction `findOrInsert` would confirm the key against. */
    void prefetchWinner(const IrProgram &prog, u64 hash) const
    {
        const Slot &slot = slots_[hash & mask_];
        if (slot.id >= 0 && slot.tag == static_cast<uint32_t>(hash >> 32))
            __builtin_prefetch(&prog.insts[slot.id]);
    }

    /** The first value whose key equals `key` (hashing to `hash`), or
     *  -1 after recording `id` as that key's winner. */
    int findOrInsert(const IrProgram &prog, const VnKey &key, u64 hash,
                     int id)
    {
        const uint32_t tag = static_cast<uint32_t>(hash >> 32);
        for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
            Slot &slot = slots_[pos];
            if (slot.id < 0) {
                slot = Slot{tag, id};
                return -1;
            }
            VnKey winner;
            if (slot.tag == tag &&
                makeKey(prog, prog.insts[slot.id], winner) && winner == key)
                return slot.id;
        }
    }

  private:
    struct Slot
    {
        uint32_t tag;
        int32_t id; ///< -1 = empty
    };
    std::vector<Slot> slots_;
    size_t mask_ = 0;
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
    const size_t n = prog.insts.size();
    VnTable table(n);
    std::vector<int> fwd(n);
    for (size_t i = 0; i < n; ++i)
        fwd[i] = static_cast<int>(i);
    auto resolve = [&](int v) {
        while (v >= 0 && fwd[v] != v)
            v = fwd[v];
        return v;
    };

    // Two-stage software pipeline over a speculative key per upcoming
    // instruction (operands resolved through `fwd` as it stands, which
    // is usually the final key; a wrong guess only wastes a hint): at
    // i + kAhead prefetch its home slot, at i + kAhead / 2 read that
    // slot and prefetch the winner a tag hit will confirm against.
    // Measured on bootstrapping: the prefetch alone gains nothing; the
    // staged read halves the scan. Hash 0 marks "no key".
    constexpr size_t kAhead = 16;
    std::array<u64, kAhead> spec_hash{};
    auto stage1 = [&](size_t j) {
        u64 &hash = spec_hash[j % kAhead];
        hash = 0;
        IrInst spec = prog.insts[j];
        if (spec.dead)
            return;
        for (int *slot : spec.operandSlots())
            if (*slot >= 0)
                *slot = resolve(*slot);
        VnKey key;
        if (makeKey(prog, spec, key)) {
            hash = hashKey(key);
            table.prefetchSlot(hash);
        }
    };
    for (size_t j = 0; j < std::min(kAhead, n); ++j)
        stage1(j);

    CseCounts counts;
    for (size_t i = 0; i < n; ++i) {
        if (i + kAhead < n)
            stage1(i + kAhead);
        const size_t peek = i + kAhead / 2;
        if (peek < n && spec_hash[peek % kAhead] != 0)
            table.prefetchWinner(prog, spec_hash[peek % kAhead]);
        IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int *slot : inst.operandSlots())
            if (*slot >= 0)
                *slot = resolve(*slot);
        VnKey key;
        if (!makeKey(prog, inst, key))
            continue;
        const int winner =
            table.findOrInsert(prog, key, hashKey(key), static_cast<int>(i));
        if (winner >= 0) {
            fwd[i] = winner;
            prog.kill(inst);
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
