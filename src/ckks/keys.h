/**
 * @file
 * CKKS key material: secret key, dnum-digit switching keys (Sec. II-C),
 * and the key generator. Switching keys live on the full Q ∪ P basis;
 * the evaluator reads the active level's limbs in place when used.
 */
#ifndef EFFACT_CKKS_KEYS_H
#define EFFACT_CKKS_KEYS_H

#include <map>

#include "ckks/params.h"
#include "ckks/types.h"
#include "common/rng.h"

namespace effact {

/** Secret key: sparse ternary s over Q ∪ P (Eval format). */
struct SecretKey
{
    RnsPoly s;
};

/**
 * A key-switching key from some source key s' to s: one (b_d, a_d) pair
 * per decomposition digit, b_d = -a_d*s + e_d + g_d*s', over Q ∪ P.
 */
struct SwitchingKey
{
    std::vector<RnsPoly> b; ///< per digit
    std::vector<RnsPoly> a; ///< per digit
};

/** Galois keys indexed by Galois element t. */
using GaloisKeys = std::map<u64, SwitchingKey>;

/** Generates secret, relinearization and Galois keys. */
class KeyGenerator
{
  public:
    KeyGenerator(const CkksContext &ctx, Rng &rng);

    /** Samples a sparse ternary secret of the configured Hamming weight */
    SecretKey genSecretKey();

    /** Relinearization key: switches s^2 back to s. */
    SwitchingKey genRelinKey(const SecretKey &sk);

    /** Galois key for element t: switches sigma_t(s) to s. */
    SwitchingKey genGaloisKey(const SecretKey &sk, u64 t);

    /** Galois keys for a set of rotation steps (plus conjugation opt-in) */
    GaloisKeys genGaloisKeys(const SecretKey &sk,
                             const std::vector<int> &steps,
                             bool conjugate = false);

    /** Gaussian error polynomial on `basis` (Eval format). */
    RnsPoly sampleError(std::shared_ptr<const RnsBasis> basis);

    /**
     * The digit gadget factor g_d mod every prime of Q ∪ P:
     * g_d = P * (Q/Q_d) * [(Q/Q_d)^-1 mod Q_d].
     */
    std::vector<u64> gadgetFactor(size_t digit) const;

    /** Core: switching key for an arbitrary source key polynomial. */
    SwitchingKey genSwitchingKey(const RnsPoly &s_from, const SecretKey &sk);

  private:
    const CkksContext &ctx_;
    Rng &rng_;
};

} // namespace effact

#endif // EFFACT_CKKS_KEYS_H
