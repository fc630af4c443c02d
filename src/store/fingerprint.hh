/**
 * @file
 * Content-addressed keys for the epoch-result store.
 *
 * A stored epoch cell is only ever served when every input that shaped
 * it matches exactly:
 *
 *  - the *workload fingerprint* hashes the full functional trace
 *    (every op of every GPE/LCP stream, phase names) together with the
 *    system parameters the replay runs under (shape, bandwidth, epoch
 *    FP-op length, every energy-model constant) and the compile-time
 *    L1 memory type. The ops of a stream go through a word-wide 4-lane
 *    hash (sadapt::digestStream: op i into lane i mod 4, an
 *    xxHash64-style round per word) whose op count and lane states
 *    close the stream in the outer FNV-1a; everything else is folded
 *    into the FNV-1a directly. The trace memoizes its stream digests
 *    (Trace::streamDigests), so a resident workload pays the per-op
 *    hash once, while the run parameters are re-hashed on every call
 *    and an edited RunParams always gets a fresh key. Two
 *    workloads collide only if their replays are
 *    identical by construction. Fault injection never flows through
 *    EpochDb replays (the live runSchedule path does not memoize), so
 *    it is deliberately not part of the fingerprint;
 *  - the configuration is keyed by its exact dense encode();
 *  - the *simulator salt* folds the store schema version and the build
 *    revision (git rev baked in at compile time), so results computed
 *    by an older simulator model can never alias a newer one.
 */

#ifndef SADAPT_STORE_FINGERPRINT_HH
#define SADAPT_STORE_FINGERPRINT_HH

#include <cstdint>
#include <string_view>

#include "sim/transmuter.hh"

namespace sadapt::store {

/** Incremental FNV-1a (64-bit) hasher for fingerprint material. */
class Fnv1a
{
  public:
    Fnv1a &
    bytes(const void *data, std::size_t size)
    {
        const auto *b = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hashV ^= b[i];
            hashV *= 0x100000001b3ull;
        }
        return *this;
    }

    Fnv1a &
    u64(std::uint64_t v)
    {
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        return bytes(b, sizeof(b));
    }

    /** Hash a double by bit pattern (exact, no rounding). */
    Fnv1a &f64(double v);

    Fnv1a &
    str(std::string_view s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return hashV; }

  private:
    std::uint64_t hashV = 0xcbf29ce484222325ull;
};

/**
 * Fingerprint of one replayable workload: trace content + run
 * parameters + L1 memory type (see the file comment for exactly what
 * is folded in). Deterministic across processes and platforms.
 */
std::uint64_t workloadFingerprint(const Trace &trace,
                                  const RunParams &params,
                                  MemType l1_type);

/**
 * The build's simulator salt: store schema version x build revision.
 * An unknown revision (no git at configure time) hashes the literal
 * "unknown", which keeps the store usable but means stale-model
 * protection degrades to the schema version alone — prefer building
 * from a git checkout.
 */
std::uint64_t buildSimSalt();

} // namespace sadapt::store

#endif // SADAPT_STORE_FINGERPRINT_HH
