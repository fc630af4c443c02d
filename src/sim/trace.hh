/**
 * @file
 * Device execution traces.
 *
 * Kernels execute functionally on the host and emit per-core operation
 * streams; the Transmuter timing engine replays a trace under any
 * hardware configuration. Because traces are functional, epoch
 * boundaries (defined by FP-op counts, Section 4) align exactly across
 * configurations, which makes the artifact's epoch-stitching methodology
 * (Appendix A.7) exact.
 *
 * A trace lives only in memory: per-stream columns (op kind, byte
 * address, access-site pc) that kernels append to and the replay
 * engine and the store fingerprint read through a non-owning
 * TraceView. No trace is written to or read from a file.
 */

#ifndef SADAPT_SIM_TRACE_HH
#define SADAPT_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace sadapt {

/** Kind of one trace operation. */
enum class OpKind : std::uint8_t
{
    IntOp,    //!< integer/bookkeeping instruction, 1 cycle
    FpOp,     //!< floating-point arithmetic (counts toward FP-ops)
    Load,     //!< integer/pointer load through the cache hierarchy
    Store,    //!< integer/pointer store through the cache hierarchy
    FpLoad,   //!< FP load (counts toward FP-ops per Table 2)
    FpStore,  //!< FP store (counts toward FP-ops per Table 2)
    SpmLoad,  //!< load from the local scratchpad (SPM L1 mode only)
    SpmStore, //!< store to the local scratchpad (SPM L1 mode only)
    Phase,    //!< explicit phase marker; addr = new phase id
};

/** @return true if the kind counts toward FP-op epoch accounting. */
constexpr bool
isFpKind(OpKind k)
{
    return k == OpKind::FpOp || k == OpKind::FpLoad ||
        k == OpKind::FpStore;
}

/** @return true if the kind moves a word to or from the scratchpad. */
constexpr bool
isSpmKind(OpKind k)
{
    return k == OpKind::SpmLoad || k == OpKind::SpmStore;
}

/** One operation of a core's execution stream, as pushed and read. */
struct TraceOp
{
    Addr addr = 0;        //!< byte address (or phase id for Phase ops)
    std::uint16_t pc = 0; //!< static access-site id (prefetcher index)
    OpKind kind = OpKind::IntOp;
};

/** One core stream as column pointers into its trace. */
struct StreamView
{
    const std::uint8_t *kind = nullptr;  //!< OpKind, one byte per op
    const Addr *addr = nullptr;          //!< byte addresses
    const std::uint16_t *pc = nullptr;   //!< access-site ids
    std::size_t size = 0;

    TraceOp
    op(std::size_t i) const
    {
        return {addr[i], pc[i], static_cast<OpKind>(kind[i])};
    }
};

/**
 * Content digest of one core stream: its op count and the four lane
 * states of a word-wide hash. Op i folds `addr` and then
 * `pc | kind << 16` into lane i mod 4 with an xxHash64-style round, so
 * the lanes are independent multiply chains. store::workloadFingerprint
 * folds these digests into a workload's store key.
 */
struct StreamDigest
{
    std::uint64_t ops = 0;
    std::array<std::uint64_t, 4> lanes{};
};

/** Digest of one stream's ops (see StreamDigest). */
StreamDigest digestStream(const StreamView &stream);

/** System shape: tiles and GPEs per tile (Figure 12 sweeps these). */
struct SystemShape
{
    std::uint32_t tiles = 2;
    std::uint32_t gpesPerTile = 8;

    std::uint32_t numGpes() const { return tiles * gpesPerTile; }

    bool operator==(const SystemShape &other) const = default;
};

/**
 * Non-owning view of a whole trace: per-core column pointers in
 * canonical order (GPE streams first, then LCP streams), phase names,
 * and the op totals the trace kept while its ops were appended, so the
 * replay engine never rescans the ops. It owns only its small stream
 * index and stays valid while its Trace is alive and unmodified.
 */
struct TraceView
{
    SystemShape shape;
    std::vector<StreamView> streams; //!< numGpes + tiles entries
    std::span<const std::string> phases;
    std::uint64_t totalFpOps = 0; //!< FP-kind ops across GPE streams
    std::uint64_t totalOps = 0;   //!< ops across all streams

    const StreamView &
    gpeStream(std::uint32_t g) const
    {
        return streams[g];
    }

    const StreamView &
    lcpStream(std::uint32_t t) const
    {
        return streams[shape.numGpes() + t];
    }
};

/**
 * A complete device program trace: one op stream per GPE and one per
 * LCP, plus named phases. Each stream is stored as three columns;
 * the trace holds no pointers into itself, so it copies and moves
 * like the vectors it is made of (plus its digest memo, see
 * streamDigests()).
 */
class Trace
{
    /** One stream's columns and its running FP-op and SPM counts. */
    struct Columns
    {
        std::vector<std::uint8_t> kind;
        std::vector<Addr> addr;
        std::vector<std::uint16_t> pc;
        std::uint64_t fpOps = 0;
        std::uint64_t spmOps = 0;

        void
        push(TraceOp op)
        {
            kind.push_back(static_cast<std::uint8_t>(op.kind));
            addr.push_back(op.addr);
            pc.push_back(op.pc);
            fpOps += isFpKind(op.kind);
            spmOps += isSpmKind(op.kind);
        }

        StreamView
        view() const
        {
            return {kind.data(), addr.data(), pc.data(), kind.size()};
        }
    };

  public:
    /** An empty trace of the default shape. */
    Trace() : Trace(SystemShape{}) {}

    explicit Trace(SystemShape shape);

    const SystemShape &shape() const { return shapeV; }

    /** Append an op to a GPE stream (asserts on a bad GPE id). */
    void
    pushGpe(std::uint32_t gpe, TraceOp op)
    {
        gpeWriter(gpe).push(op);
    }

    /** Append an op to an LCP (tile controller) stream. */
    void
    pushLcp(std::uint32_t tile, TraceOp op)
    {
        lcpWriter(tile).push(op);
    }

    /**
     * Pre-validated append handle for one stream. pushGpe/pushLcp
     * bounds-check the core id on every op, which shows up in release
     * builds inside per-nonzero kernel emit loops; a writer checks the
     * id once at construction and appends unchecked after that. The
     * handle is invalidated by anything that reshapes, copies or moves
     * the trace — fetch, emit, drop.
     */
    class StreamWriter
    {
      public:
        void push(TraceOp op) { streamV->push(op); }

        /** Reserve room for `n` more ops (append() knows its count). */
        void
        reserve(std::size_t n)
        {
            streamV->kind.reserve(streamV->kind.size() + n);
            streamV->addr.reserve(streamV->addr.size() + n);
            streamV->pc.reserve(streamV->pc.size() + n);
        }

      private:
        friend class Trace;
        explicit StreamWriter(Columns *stream) : streamV(stream) {}
        Columns *streamV;
    };

    /** Writer for one GPE stream (asserts the id once, not per op). */
    StreamWriter
    gpeWriter(std::uint32_t gpe)
    {
        SADAPT_ASSERT(gpe < shapeV.numGpes(), "gpe index out of range");
        return StreamWriter(&streamsV[gpe]);
    }

    /** Writer for one LCP stream (asserts the id once, not per op). */
    StreamWriter
    lcpWriter(std::uint32_t tile)
    {
        SADAPT_ASSERT(tile < shapeV.tiles, "tile index out of range");
        return StreamWriter(&streamsV[shapeV.numGpes() + tile]);
    }

    /**
     * Mark the start of a new named explicit phase on every core.
     * Phase ids increase monotonically from 0.
     */
    void beginPhase(const std::string &name);

    StreamView gpeStream(std::uint32_t g) const;
    StreamView lcpStream(std::uint32_t t) const;

    /** Names of the explicit phases, indexed by phase id. */
    const std::vector<std::string> &phaseNames() const { return phases; }

    /** Total FP-ops across all GPE streams. */
    double totalFlops() const;

    /** Total SPM loads and stores across all GPE streams. */
    std::uint64_t totalSpmOps() const;

    /** Total op count across all streams. */
    std::uint64_t totalOps() const;

    /** Append another trace's streams after this one (same shape). */
    void append(const Trace &other);

    /** The column view the replay engine and the writers read. */
    TraceView view() const;

    /**
     * Release the columns' spare capacity. Columns grow by doubling
     * while a kernel pushes, so a finished trace holds up to twice
     * its ops; the workload factories call this once the kernel is
     * done, so a resident workload holds exactly its ops.
     */
    void shrinkToFit();

    /** Per-stream digests, in view() order. */
    using StreamDigests = std::vector<StreamDigest>;

    /**
     * digestStream() of every stream, hashed once and memoized. The
     * memo is stamped with the total op count and the phase count;
     * the columns are append-only, so any push (through a writer
     * still live from before the memo, too), append() or
     * beginPhase() moves the stamp and the next call re-hashes.
     * Safe to call from several threads on a const trace; not while
     * another thread appends. A copy starts with an empty memo, a
     * move takes it along.
     */
    std::shared_ptr<const StreamDigests> streamDigests() const;

  private:
    /** The memo behind streamDigests(), guarded by its own mutex. */
    struct DigestMemo
    {
        DigestMemo() = default;
        DigestMemo(const DigestMemo &) {}
        DigestMemo(DigestMemo &&other) noexcept
            : ops(other.ops), phases(other.phases),
              digests(std::move(other.digests))
        {
        }

        DigestMemo &
        operator=(const DigestMemo &)
        {
            digests.reset();
            return *this;
        }

        DigestMemo &
        operator=(DigestMemo &&other) noexcept
        {
            ops = other.ops;
            phases = other.phases;
            digests = std::move(other.digests);
            return *this;
        }

        std::mutex mu;
        std::uint64_t ops = 0;
        std::size_t phases = 0;
        std::shared_ptr<const StreamDigests> digests; //!< null: none
    };

    SystemShape shapeV;
    /** Canonical order: GPE streams 0..N-1, then LCP streams. */
    std::vector<Columns> streamsV;
    std::vector<std::string> phases;
    mutable DigestMemo memo;
};

/** Short mnemonic of an op kind (the profile metric names use it). */
std::string opKindName(OpKind k);

} // namespace sadapt

#endif // SADAPT_SIM_TRACE_HH
