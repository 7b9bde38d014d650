/**
 * @file
 * Benchmark program generators (Sec. V-A): fully-packed bootstrapping,
 * HELR logistic-regression training, ResNet-20 inference segments, the
 * BGV DB-Lookup, and TFHE gate bootstrapping. Each returns a residue-
 * polynomial IR program at paper-scale parameters plus a `repeat`
 * factor: the simulated runtime of the program times `repeat` is the
 * full-benchmark runtime (the paper similarly scales measured segments,
 * Sec. V-C).
 */
#ifndef EFFACT_IR_WORKLOADS_H
#define EFFACT_IR_WORKLOADS_H

#include "ir/kernels.h"

namespace effact {

/** A workload's scaling metadata: everything besides the program that
 *  benchmark-level reporting (`Platform::assemble`) reads. */
struct WorkloadInfo
{
    double repeat = 1.0;   ///< full benchmark = program runtime * repeat
    /** Divisor for amortized-time reporting: slots x (L - L_boot), the
     *  standard T_A.S. definition of [30]. */
    double amortizeFactor = 1.0;
    FheParams fhe;
};

/** A generated workload: the IR program plus its scaling metadata. */
struct Workload : WorkloadInfo
{
    IrProgram program;
};

/** Bootstrapping stage budget (Table III). */
struct BootstrapBudget
{
    size_t slots = size_t(1) << 15;
    size_t levelsCtS = 4;
    size_t levelsStC = 3;
    size_t sineDegree = 255;
    size_t babySteps = 16;

    /**
     * Fewest `FheParams::levels` this bootstrapping runs with: one more
     * than the levels it consumes from the top of the modulus chain (a
     * rescale per CtS and StC stage, the EvalMod input scaling, the
     * sine polynomial's depth), since a rescale needs level >= 2. Below
     * it the builder panics (`cannot rescale at level 1`).
     */
    size_t minLevels() const;
};

/** Fully-packed CKKS bootstrapping (Table III row 1). */
Workload buildBootstrapping(const FheParams &fhe,
                            const BootstrapBudget &budget = {});

/** One HELR training iteration pair + its 256-slot bootstrapping. */
Workload buildHelr(const FheParams &fhe);

/** A ResNet-20 segment (2 convolution layers + 1 bootstrapping),
 *  repeated to cover the 20-layer network. */
Workload buildResNet20(const FheParams &fhe);

/** HElib-style DB-Lookup on BGV (depth-1 select + aggregation). */
Workload buildDbLookup(const FheParams &fhe, size_t records = 256);

/** TFHE gate bootstrapping (Sec. VI-D): blind rotation + extraction. */
Workload buildTfheBootstrap();

/**
 * Hoisted rotate-accumulate batch: `chains` independent serial
 * automorphism chains of `hops` steps each (v_{s+1} = sigma_g(v_s)),
 * accumulated into one ciphertext with a single deferred key switch —
 * the pre-key-switch hoisting pattern of BSGS linear transforms.
 * The serial Auto-of-Auto chains are exactly the shape the `rotalg`
 * pass rewrites: composition re-roots every rotation at the chain
 * head (breaking the serial dependence on the lone AUTO unit), the
 * hops each chain merely steps through (even chains accumulate only
 * every second hop, odd chains run the squared generator for half
 * the steps) become dead rotations the pass retires, and the
 * surviving paired elements g^{2s} == (g^2)^s collide after
 * canonicalization so PRE deduplicates them across each pair.
 */
Workload buildRotationBatch(const FheParams &fhe, size_t chains = 4,
                            size_t hops = 8);

/** `BootstrapBudget::minLevels` for the HELR and ResNet-20 builders:
 *  one more than their deepest rescale chain, and for ResNet-20 at
 *  least the fixed level its convolution segment starts at. */
size_t helrMinLevels();
size_t resNet20MinLevels();

/** Emits the ModRaise data movement + broadcast NTTs. */
IrCt emitModRaise(KernelBuilder &kb, const std::string &name);

/** All four paper benchmarks keyed by name (for Fig. 3). */
std::vector<std::pair<std::string, Workload>> buildAllBenchmarks(
    const FheParams &fhe);

} // namespace effact

#endif // EFFACT_IR_WORKLOADS_H
