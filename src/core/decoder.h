/**
 * @file
 * Decoding pipeline (paper Sections 6.6 and 8).
 *
 * From raw sequencing reads to decoded (and updated) block contents:
 *
 *  1. keep reads carrying the partition's primer stem (and, for a
 *     targeted read, the elongated prefix);
 *  2. cluster the reads by edit distance [28], bucketing them by
 *     MinHash signatures of the strand body (the read without its
 *     primer_length bases at each end, which every read of the
 *     partition shares);
 *  3. in descending cluster-size order, reconstruct a strand per
 *     cluster with double-sided BMA [20], parse its address, and
 *     keep the first reconstruction per address (later duplicates
 *     are discarded, or kept as alternate candidates for the
 *     recursive fallback of Section 8.1);
 *  4. place molecules into encoding units by (block, version,
 *     column), decode each unit with RS errors-and-erasures,
 *     descramble;
 *  5. apply each block's update chain in version order.
 *
 * One pipeline implements the stages: StreamingDecoder. Reads stream
 * in through feed() (as they come off a sequencer) into a running
 * OnlineClusterer and per-cluster consensus state, and finish()
 * decodes every unit the accumulated state supports. In eager mode
 * each RS unit also decodes the moment its column coverage suffices,
 * and the session terminates early — further reads are skipped, not
 * processed — once every expected unit is recovered. That makes p50
 * decode latency proportional to when the file *became* recoverable
 * instead of to the worst-case read budget.
 *
 * Decoder::decodeChunks is that pipeline run as a deferred session:
 * reads in through one feed() per chunk, every decodable unit out of
 * finish(). Decoder::decodeAll is its one-chunk case.
 */

#ifndef DNASTORE_CORE_DECODER_H
#define DNASTORE_CORE_DECODER_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/clusterer.h"
#include "common/thread_pool.h"
#include "consensus/bma.h"
#include "core/partition.h"
#include "core/update.h"
#include "sim/sequencer.h"
#include "telemetry/trace.h"

namespace dnastore::core {

/** Pipeline knobs. */
struct DecoderParams
{
    cluster::ClustererParams cluster;
    consensus::BmaParams bma;

    /** Maximum edit distance between a read prefix and the primer
     *  stem for the read to enter the pipeline. */
    size_t primer_match_dist = 3;

    /** Maximum tree-walk mismatches accepted by the nearest-leaf
     *  index decode. */
    size_t max_index_mismatches = 2;

    /** Clusters smaller than this are ignored. */
    size_t min_cluster_size = 2;

    /** Keep up to this many alternate candidates per address for the
     *  recursive decode fallback (Section 8.1). */
    size_t max_candidates_per_address = 3;
};

/** Counters reported by a decode run. */
struct DecodeStats
{
    /** Reads offered to the pipeline — consumed or skipped. */
    size_t reads_in = 0;
    size_t reads_primer_matched = 0;
    size_t clusters_total = 0;
    size_t clusters_used = 0;
    size_t strands_recovered = 0;
    size_t duplicate_addresses = 0;
    size_t index_rejects = 0;
    size_t units_attempted = 0;
    size_t units_decoded = 0;
    size_t units_failed = 0;
    size_t symbol_errors_corrected = 0;
    size_t erasures_filled = 0;
    size_t candidate_retries = 0;

    /** Reads the pipeline actually ingested (filtered, clustered).
     *  Always reads_in for the one-shot path; for a streaming session
     *  it stops growing at early termination, so skipped reads are
     *  never misreported as processed. Invariant:
     *  reads_in == reads_consumed + reads_skipped. */
    size_t reads_consumed = 0;

    /** Reads offered after the session completed; never processed. */
    size_t reads_skipped = 0;

    /** Units emitted by an early (pre-finish) streaming RS attempt.
     *  Always 0 for the one-shot path. */
    size_t units_emitted_early = 0;

    /** Field-wise equality (used by the thread-invariance tests). */
    bool operator==(const DecodeStats &) const = default;
};

/** Hands a decode its reads one chunk at a time: the next chunk, or
 *  nullopt once there are no more. */
using ReadChunks = std::function<std::optional<std::vector<sim::Read>>()>;

/** All decoded versions of one block. */
struct BlockVersions
{
    /** version -> descrambled full unit payload. */
    std::map<unsigned, Bytes> versions;

    bool operator==(const BlockVersions &) const = default;
};

class Decoder
{
  public:
    Decoder(const Partition &partition, DecoderParams params);

    /**
     * Decode every unit present in the reads. Keys are block ids;
     * each entry maps version slots to descrambled unit payloads.
     * @p stats, when given, is overwritten, not accumulated.
     *
     * The primer filter, MinHash signatures, per-cluster consensus
     * and per-unit RS decodes fan out across @p pool: the process's
     * ThreadPool::shared() by default, DecodeService's own pool on
     * the service path. Output is byte-identical for any pool size.
     *
     * decodeChunks with the whole read set as one chunk. @p trace
     * parents per-stage spans (decode.primer_filter, decode.cluster,
     * decode.consensus, one decode.rs_unit per RS attempt); the
     * default inactive context records nothing and costs one branch
     * per stage.
     */
    std::map<uint64_t, BlockVersions> decodeAll(
        std::vector<sim::Read> reads, DecodeStats *stats = nullptr,
        ThreadPool &pool = ThreadPool::shared(),
        const telemetry::TraceContext &trace = {}) const;

    /**
     * Decode reads that arrive in chunks: one deferred
     * StreamingDecoder session, fed once per chunk @p next returns
     * and finished when it returns nullopt. Units and @p stats are
     * decodeAll's for the concatenated reads, whatever the chunking;
     * each chunk records its own decode.primer_filter and
     * decode.cluster spans, and finish() records decode.consensus
     * and the decode.rs_unit spans once.
     */
    std::map<uint64_t, BlockVersions> decodeChunks(
        const ReadChunks &next, DecodeStats *stats = nullptr,
        ThreadPool &pool = ThreadPool::shared(),
        const telemetry::TraceContext &trace = {}) const;

    /**
     * Decode one block's final contents: version 0 plus the update
     * chain applied in slot order. Returns nullopt if version 0 is
     * not decodable. If the chain ends in an overflow pointer, the
     * pointer is reported through @p overflow_block (the caller must
     * fetch that block in another round trip). The decode runs on
     * @p pool, as in decodeAll.
     */
    std::optional<Bytes> decodeBlock(
        const std::vector<sim::Read> &reads, uint64_t block,
        DecodeStats *stats = nullptr,
        std::optional<uint64_t> *overflow_block = nullptr,
        ThreadPool &pool = ThreadPool::shared()) const;

    /**
     * Apply a decoded update chain to base contents. Versions must
     * be the descrambled unit payloads of one block. Records are
     * read from slot @p first_slot up: 1 for a block's own chain,
     * whose slot 0 is the base, and 0 for an overflow container,
     * whose every slot holds a record. The chain ends at the first
     * missing or unparsable slot, or at an overflow pointer. Returns
     * the updated block contents and optionally the overflow pointer.
     */
    Bytes applyUpdateChain(
        const Bytes &base, const BlockVersions &chain,
        std::optional<uint64_t> *overflow_block = nullptr,
        unsigned first_slot = 1) const;

    const Partition &partition() const { return partition_; }
    const DecoderParams &params() const { return params_; }

    /**
     * Expires when this decoder is destroyed. DecodeService captures
     * it at submission and refuses (FatalError through the future) to
     * run a request whose decoder died while queued — turning the
     * "decoder must outlive its future" contract from silent UB into
     * a typed failure. Best-effort: a decoder destroyed *while* its
     * request is decoding is still a caller bug.
     */
    std::weak_ptr<const void> livenessToken() const { return liveness_; }

  private:
    const Partition &partition_;
    DecoderParams params_;

    /** Anchor for livenessToken(); dies with the decoder. */
    std::shared_ptr<const void> liveness_ = std::make_shared<int>(0);
};

/** Identifies one RS encoding unit: (block, version slot). */
using UnitKey = std::pair<uint64_t, unsigned>;

/** Streaming-session knobs (on top of DecoderParams). */
struct StreamingParams
{
    /**
     * Units whose recovery terminates the session early: once every
     * listed unit has decoded, the session is complete() and further
     * feed() chunks are skipped (counted, never processed). Typically
     * {(block, 0)} for every block of the file being read.
     *
     * Empty list = deferred mode: feed() only accumulates cluster
     * state (no early RS attempts, no early termination) and
     * finish() decodes everything at once. Decoder::decodeAll is a
     * one-chunk deferred session, and the chunking does not change
     * finish()'s units or DecodeStats.
     */
    std::vector<UnitKey> expected_units;

    /**
     * Distinct columns a unit needs before an early RS attempt
     * fires; 0 = rs_n - max(0, d - 3) where d = rs_n - rs_k + 1 is
     * the code's minimum distance (13 of 15 for the default RS
     * geometry). Early attempts additionally only accept outcomes
     * whose erasures f and corrections e keep the reliability margin
     * d - f - 2e >= 3, so a frozen early payload can only be wrong
     * if three consensus columns are wrong at once. Lowering the
     * threshold toward rs_k fires attempts sooner but cannot bypass
     * that accept guard — at exactly rs_k a decode is pure
     * interpolation and would never clear the margin. Eager mode
     * only.
     */
    size_t attempt_columns = 0;

    /**
     * Invoked synchronously from inside feed()/finish() for each
     * unit the moment it decodes, in deterministic order (ascending
     * unit key within a chunk). The payload is the descrambled raw
     * unit payload, byte-identical to the one-shot decode of the
     * same unit.
     */
    std::function<void(uint64_t block, unsigned version,
                       const Bytes &payload)>
        on_unit;
};

/** One unit emitted by a streaming session, in emission order. */
struct StreamedUnit
{
    uint64_t block = 0;
    unsigned version = 0;
    Bytes payload;

    bool operator==(const StreamedUnit &) const = default;
};

/**
 * Incremental decode session. Feed reads as they arrive; the session
 * maintains a running OnlineClusterer, per-cluster BMA consensus, and
 * per-unit column coverage, firing an RS unit decode as soon as a
 * unit's coverage threshold is met. All processing happens inside
 * feed()/finish() on the caller's thread (fanning out internal stages
 * on the given pool) — the session itself is not thread-safe; drive
 * it from one thread, or through DecodeService::openStream which
 * serializes chunks per session.
 *
 * Determinism: for a fixed chunk sequence, the emitted units, their
 * order, and the final stats are byte-identical for any pool size,
 * and every emitted payload is byte-identical to the one-shot
 * decodeAll of the full read set.
 */
class StreamingDecoder
{
  public:
    StreamingDecoder(const Partition &partition, DecoderParams params,
                     StreamingParams streaming = {});

    StreamingDecoder(const StreamingDecoder &) = delete;
    StreamingDecoder &operator=(const StreamingDecoder &) = delete;

    /**
     * Ingest one chunk. Returns the number of reads consumed: the
     * whole chunk, or 0 when the session already completed (the
     * chunk is counted as skipped). Newly decodable units are
     * emitted through StreamingParams::on_unit before feed returns.
     * Throws FatalError after finish(). The session keeps the kept
     * reads' sequences by moving them out of @p reads, so a caller
     * that hands its chunk over pays no copy.
     *
     * @p pool serves the chunk's internal parallel stages.
     * @p trace parents the chunk's stage spans (same taxonomy as
     * Decoder::decodeAll, plus a decode.early_termination event the
     * moment the last expected unit decodes).
     */
    size_t feed(std::vector<sim::Read> reads,
                ThreadPool &pool = ThreadPool::shared(),
                const telemetry::TraceContext &trace = {});

    /** True once every expected unit has decoded (eager mode). */
    bool complete() const { return complete_; }

    /**
     * Finalize the session: decode everything still decodable from
     * the accumulated state (deferred mode: the whole decode of all
     * consumed reads, as in decodeAll) and return every recovered
     * unit — early-emitted and finish-decoded alike. Expected units
     * that never reached decodability are simply absent from the
     * result (DecodeService::openStream surfaces them with a typed
     * per-unit status). Single-shot: a second call throws.
     */
    std::map<uint64_t, BlockVersions> finish(
        DecodeStats *stats = nullptr,
        ThreadPool &pool = ThreadPool::shared(),
        const telemetry::TraceContext &trace = {});

    bool finished() const { return finished_; }

    /** Units emitted so far, in emission order. */
    const std::vector<StreamedUnit> &emitted() const { return emitted_; }

    /** Running counters (reads consumed/skipped grow per feed). */
    const DecodeStats &stats() const { return stats_; }

  private:
    /** What the latest consensus of one cluster mapped to. */
    struct ClusterView
    {
        enum class State
        {
            Unparsed,     ///< consensus did not parse to fields
            IndexReject,  ///< parsed, but index/column decode failed
            Mapped,       ///< contributes a candidate for `unit`
        };

        /** Cluster size when consensus last ran (0 = never). */
        size_t members_at_consensus = 0;

        State state = State::Unparsed;
        UnitKey unit{0, 0};
        unsigned column = 0;
        Bytes payload;
        size_t index_mismatches = 0;
    };

    /** Recompute consensus for @p cluster_ids (ascending), refresh
     *  their views, and collect the unit keys whose column maps
     *  changed. */
    std::set<UnitKey> refreshClusters(
        const std::vector<size_t> &cluster_ids, ThreadPool &pool,
        const telemetry::TraceContext &trace);

    /** Fire RS attempts for changed, coverage-sufficient units in
     *  ascending key order; emit successes. */
    void attemptUnits(const std::set<UnitKey> &changed,
                      ThreadPool &pool,
                      const telemetry::TraceContext &trace);

    /** Record a successful unit decode: emission list, callback,
     *  early-termination bookkeeping (stats fold in the callers). */
    void emitUnit(const UnitKey &unit, Bytes payload, bool early);

    const Partition &partition_;
    DecoderParams params_;
    StreamingParams streaming_;

    cluster::OnlineClusterer clusterer_;
    std::vector<ClusterView> views_;

    /** Incomplete units: column -> contributing cluster ids. */
    std::map<UnitKey, std::map<unsigned, std::vector<size_t>>>
        pending_units_;

    /** Decoded units: descrambled raw unit payloads. */
    std::map<UnitKey, Bytes> completed_;

    std::vector<StreamedUnit> emitted_;
    std::set<UnitKey> expected_remaining_;
    bool eager_ = false;
    bool complete_ = false;
    bool finished_ = false;
    DecodeStats stats_;
};

} // namespace dnastore::core

#endif // DNASTORE_CORE_DECODER_H
