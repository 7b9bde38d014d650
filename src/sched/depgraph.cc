#include "sched/depgraph.h"

#include <algorithm>

#include "common/logging.h"
#include "verify/verify.h"

namespace effact {

void
DepGraph::addEdge(int from, int to, DepKind kind)
{
    EFFACT_ASSERT(from >= 0 && to >= 0 && from < to &&
                      static_cast<size_t>(to) < n_ && !finalized_,
                  "bad dependence edge %d -> %d", from, to);
    raw_.push_back({from, to, kind});
    ++soff_[static_cast<size_t>(from)];
    ++indeg_[static_cast<size_t>(to)];
}

void
DepGraph::finalize()
{
    EFFACT_ASSERT(!finalized_, "graph already finalized");
    soff_.resize(n_ + 1, 0);
    // Inclusive prefix sums of the out-degrees make soff_[i] the end of
    // node i's slice; filling from the last appended edge backwards
    // moves it to the slice start and keeps per-node append order.
    for (size_t i = 1; i < n_; ++i)
        soff_[i] += soff_[i - 1];
    soff_[n_] = static_cast<uint32_t>(raw_.size());
    sedge_.resize(raw_.size());
    for (size_t k = raw_.size(); k-- > 0;) {
        const Edge &e = raw_[k];
        sedge_[--soff_[static_cast<size_t>(e.from)]] = {e.to, e.kind};
    }
    std::vector<Edge>().swap(raw_);
    finalized_ = true;
}

DepGraph
DepGraph::fromIr(const IrProgram &prog,
                 const std::vector<std::pair<int, int>> &mem_deps)
{
    DepGraph g(prog.insts.size());
    g.raw_.reserve(prog.insts.size() * 2 + mem_deps.size());
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int operand : inst.operands())
            if (operand >= 0)
                g.addEdge(operand, static_cast<int>(i), DepKind::True);
    }
    for (auto [from, to] : mem_deps)
        g.addEdge(from, to, DepKind::MemAlias);
    g.finalize();
    return g;
}

DepGraph
DepGraph::fromMachine(const MachineProgram &prog)
{
    const size_t n = prog.insts.size();
    DepGraph g(n);
    g.raw_.reserve(n * 2);

    // Dense producer tables: register ids are small consecutive ints
    // from the allocator and FIFO tokens are IR value ids, so
    // direct-indexed tables beat hash maps on the hot build path. Both
    // grow on demand as writers appear; a source beyond a table's end
    // has no writer yet.
    std::vector<int> last_writer;   // register -> inst
    std::vector<int> fifo_producer; // token -> inst
    auto slot = [](std::vector<int> &table, u64 id) -> int & {
        if (id >= table.size())
            table.resize(std::max<u64>(id + 1, table.size() * 2), -1);
        return table[static_cast<size_t>(id)];
    };

    for (size_t i = 0; i < n; ++i) {
        const MachInst &mi = prog.insts[i];
        const int self = static_cast<int>(i);
        // A source with no resolvable producer (a live-in register, an
        // HBM address, an immediate) simply has no edge.
        for (const Operand *src : {&mi.src0, &mi.src1, &mi.src2}) {
            int def = -1;
            if (src->kind == OperandKind::Reg &&
                static_cast<u64>(src->reg) < last_writer.size())
                def = last_writer[static_cast<size_t>(src->reg)];
            else if (src->kind == OperandKind::Stream && !src->dram &&
                     src->value < fifo_producer.size())
                def = fifo_producer[static_cast<size_t>(src->value)];
            if (def >= 0)
                g.addEdge(def, self, DepKind::True);
        }
        if (mi.dest.kind == OperandKind::Reg) {
            if (mi.dest.reg < 0)
                panicMalformedMachine(prog, self,
                                      "destination register id is "
                                      "negative");
            if (mi.writesDest()) {
                int &prev =
                    slot(last_writer, static_cast<u64>(mi.dest.reg));
                if (prev >= 0)
                    g.addEdge(prev, self, DepKind::Anti);
                prev = self;
            }
        } else if (mi.dest.kind == OperandKind::Stream && !mi.dest.dram &&
                   mi.writesDest()) {
            slot(fifo_producer, mi.dest.value) = self;
        }
    }
    g.finalize();
    return g;
}

const std::vector<uint32_t> &
DepGraph::indegrees() const
{
    EFFACT_ASSERT(finalized_, "graph not finalized");
    return indeg_;
}

std::vector<double>
DepGraph::criticalPath(const std::vector<double> &node_latency) const
{
    EFFACT_ASSERT(finalized_ && node_latency.size() == n_,
                  "graph not finalized or latency table size mismatch");
    std::vector<double> prio(n_, 0.0);
    for (size_t i = n_; i-- > 0;) {
        double best = 0.0;
        for (const DepEdge &e : succs(i))
            best = std::max(best, prio[static_cast<size_t>(e.other)]);
        prio[i] = best + node_latency[i];
    }
    return prio;
}

} // namespace effact
