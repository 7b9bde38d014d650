#include "isa/isa.h"

#include <array>
#include <sstream>

#include "common/logging.h"

namespace effact {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

/** kFnvPrimePow[k] = kFnvPrime^k mod 2^64, k = 0..8. */
constexpr std::array<uint64_t, 9> kFnvPrimePow = [] {
    std::array<uint64_t, 9> pow{};
    pow[0] = 1;
    for (size_t k = 1; k < pow.size(); ++k)
        pow[k] = pow[k - 1] * kFnvPrime;
    return pow;
}();

} // namespace

uint64_t
fingerprint(const MachineProgram &prog)
{
    uint64_t h = 14695981039346656037ULL; // FNV-1a offset basis
    auto mix = [&h](u64 v) {
        // Bytewise FNV-1a over all 8 bytes, low byte first, so field
        // boundaries stay distinct. XOR with a zero byte is the
        // identity, so the value's high zero bytes fold into one
        // multiply by a power of the prime.
        const int bytes = v == 0 ? 0 : 8 - __builtin_clzll(v) / 8;
        for (int byte = 0; byte < bytes; ++byte, v >>= 8) {
            h ^= v & 0xff;
            h *= kFnvPrime;
        }
        h *= kFnvPrimePow[8 - bytes];
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
