#include "isa/isa.h"

#include <array>
#include <sstream>

#include "common/logging.h"

namespace effact {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

/** kFnvPrimePow[k] = kFnvPrime^k mod 2^64, k = 0..16. */
constexpr std::array<uint64_t, 17> kFnvPrimePow = [] {
    std::array<uint64_t, 17> pow{};
    pow[0] = 1;
    for (size_t k = 1; k < pow.size(); ++k)
        pow[k] = pow[k - 1] * kFnvPrime;
    return pow;
}();

/**
 * Table-driven FNV-1a over one fixed byte string S of m bytes. XOR with
 * a byte changes only the low 8 bits of the state, and the low 8 bits
 * of a product mod 2^64 depend only on the low 8 bits of its factors,
 * so hashing S from state h gives h·P^m + T[h & 0xff], with
 * T[l] = FNV_S(l) - l·P^m: one multiply and one table add in place of
 * m serial xor-multiply steps.
 */
struct ConstantRun
{
    uint64_t mul = 1;
    std::array<uint64_t, 256> add{};

    template <size_t M>
    static constexpr ConstantRun make(const std::array<uint8_t, M> &bytes)
    {
        ConstantRun run;
        for (size_t k = 0; k < M; ++k)
            run.mul *= kFnvPrime;
        for (uint64_t low = 0; low < 256; ++low) {
            uint64_t h = low;
            for (uint8_t byte : bytes) {
                h ^= byte;
                h *= kFnvPrime;
            }
            run.add[low] = h - low * run.mul;
        }
        return run;
    }

    uint64_t apply(uint64_t h) const { return h * mul + add[h & 0xff]; }
};

/** A None operand: kind 0, reg -1, value 0, dram 0 (4 x 8 bytes). */
constexpr ConstantRun kNoneOperandRun = ConstantRun::make([] {
    std::array<uint8_t, 32> bytes{};
    for (size_t k = 8; k < 16; ++k)
        bytes[k] = 0xff;
    return bytes;
}());

/** Any field equal to -1: eight 0xff bytes. */
constexpr ConstantRun kMinusOneRun = ConstantRun::make([] {
    std::array<uint8_t, 8> bytes{};
    for (uint8_t &byte : bytes)
        byte = 0xff;
    return bytes;
}());

} // namespace

uint64_t
fingerprintNoneOperand(uint64_t h)
{
    return kNoneOperandRun.apply(h);
}

uint64_t
fingerprintMinusOne(uint64_t h)
{
    return kMinusOneRun.apply(h);
}

uint64_t
fingerprint(const MachineProgram &prog)
{
    uint64_t h = 14695981039346656037ULL; // FNV-1a offset basis
    auto mix = [&h](u64 v) {
        // Bytewise FNV-1a over all 8 bytes, low byte first, so field
        // boundaries stay distinct. XOR with a zero byte is the
        // identity, so the multiply for the value's top non-zero byte
        // and those for its high zero bytes fold into one multiply by a
        // power of the prime.
        if (v == 0) {
            h *= kFnvPrimePow[8];
            return;
        }
        const int bytes = 8 - __builtin_clzll(v) / 8;
        for (int byte = 1; byte < bytes; ++byte, v >>= 8) {
            h ^= v & 0xff;
            h *= kFnvPrime;
        }
        h ^= v;
        h *= kFnvPrimePow[9 - bytes];
    };
    auto mixSigned = [&](int64_t v) {
        if (v == -1)
            h = kMinusOneRun.apply(h);
        else
            mix(static_cast<u64>(v));
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
            if (o->kind == OperandKind::None && o->reg == -1 &&
                o->value == 0 && !o->dram) {
                h = kNoneOperandRun.apply(h);
                continue;
            }
            mix(static_cast<u64>(o->kind));
            mixSigned(o->reg);
            if (o->value == 0 && !o->dram) {
                h *= kFnvPrimePow[16]; // two zero words
                continue;
            }
            mix(o->value);
            mix(o->dram ? 1 : 0);
        }
        mix(mi.modulus);
        mix(mi.imm);
        mix(mi.hbmAddr);
        mixSigned(mi.irId);
    }
    return h;
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::MMUL: return "MMUL";
      case Opcode::MMAD: return "MMAD";
      case Opcode::MSUB: return "MSUB";
      case Opcode::MMAC: return "MMAC";
      case Opcode::NTT: return "NTT";
      case Opcode::INTT: return "INTT";
      case Opcode::AUTO: return "AUTO";
      case Opcode::LOAD_RES: return "LoadRes";
      case Opcode::STORE_RES: return "StoreRes";
      case Opcode::VEC_COPY: return "VecCopy";
    }
    panic("unknown opcode %d", static_cast<int>(op));
}

namespace {

std::string
operandStr(const Operand &o)
{
    switch (o.kind) {
      case OperandKind::None:
        return "-";
      case OperandKind::Reg:
        return "r" + std::to_string(o.reg);
      case OperandKind::Stream:
        return "fifo" + std::to_string(o.value);
      case OperandKind::Imm:
        return "#" + std::to_string(o.value);
    }
    return "?";
}

} // namespace

std::string
disassemble(const MachInst &inst)
{
    std::ostringstream os;
    os << opcodeName(inst.op) << " " << operandStr(inst.dest);
    if (inst.src0.kind != OperandKind::None)
        os << ", " << operandStr(inst.src0);
    if (inst.src1.kind != OperandKind::None)
        os << ", " << operandStr(inst.src1);
    if (inst.src2.kind != OperandKind::None)
        os << ", acc " << operandStr(inst.src2);
    os << " [q" << inst.modulus << "]";
    if (inst.op == Opcode::AUTO)
        os << " elt=" << inst.imm;
    if (inst.op == Opcode::LOAD_RES || inst.op == Opcode::STORE_RES)
        os << " @0x" << std::hex << inst.hbmAddr << std::dec;
    return os.str();
}

std::string
disassemble(const MachineProgram &prog, size_t limit)
{
    std::ostringstream os;
    size_t count = limit == 0 ? prog.insts.size()
                              : std::min(limit, prog.insts.size());
    for (size_t i = 0; i < count; ++i)
        os << i << ": " << disassemble(prog.insts[i]) << "\n";
    if (count < prog.insts.size())
        os << "... (" << (prog.insts.size() - count) << " more)\n";
    return os.str();
}

} // namespace effact
