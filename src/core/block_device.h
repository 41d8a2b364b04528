/**
 * @file
 * BlockDevice: the end-to-end block-storage API over simulated DNA.
 *
 * This is the facade a storage user programs against. It owns one
 * partition and its simulated DNA pool, and implements:
 *
 *  - writeFile(): encode + synthesize the initial pool;
 *  - readBlock(): elongated-primer PCR, sequencing, full decode, and
 *    update-chain application (following overflow pointers across
 *    additional round trips, Figure 8);
 *  - readRange(): multiplex PCR with an exact prefix cover of the
 *    range (sequential access, Section 3.1);
 *  - readAll(): conventional whole-partition random access (the
 *    baseline behaviour of [23]);
 *  - updateBlock()/replaceBlock(): synthesize a patch and mix it
 *    into the pool at matched concentration (Sections 5 and 6.4).
 *
 * Synthesis and sequencing activity is metered by a CostModel.
 */

#ifndef DNASTORE_CORE_BLOCK_DEVICE_H
#define DNASTORE_CORE_BLOCK_DEVICE_H

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/cost.h"
#include "core/decoder.h"
#include "core/partition.h"
#include "core/tenant.h"
#include "sim/mixing.h"
#include "sim/pcr.h"
#include "sim/sequencer.h"
#include "sim/synthesis.h"

namespace dnastore::core {

class DecodeService;

/** Everything configurable about a device. */
struct BlockDeviceParams
{
    PartitionConfig config;
    sim::SynthesisParams synthesis;
    sim::PcrParams pcr;
    sim::SequencerParams sequencer;
    DecoderParams decoder;
    CostParams costs;

    /** Reads sequenced for a single-block access. */
    size_t reads_per_block_access = 1200;

    /** Reads per molecule when sequencing larger scopes. */
    double coverage = 20.0;

    /** PCR cycles for a block access (touchdown + plateau). */
    unsigned block_access_cycles = 28;

    /** Touchdown cycles at elevated stringency (Section 6.5). */
    unsigned touchdown_cycles = 10;

    /** Relative concentration of leftover main primers carried into
     *  a block-access reaction (0 disables; the paper observed 18%
     *  of reads from this artifact). */
    double leftover_primer_concentration = 0.0;
};

class BlockDevice
{
  public:
    BlockDevice(BlockDeviceParams params, dna::Sequence forward,
                dna::Sequence reverse, uint32_t file_id = 13);

    /** Self-referential (decoder_ holds a reference to partition_):
     *  copying or moving would leave the decoder bound to the old
     *  object's partition. */
    BlockDevice(const BlockDevice &) = delete;
    BlockDevice &operator=(const BlockDevice &) = delete;

    /** Encode and synthesize the file; replaces any previous pool. */
    void writeFile(const Bytes &data);

    /** Number of data blocks stored by the last writeFile(). */
    uint64_t blockCount() const { return data_blocks_; }

    /**
     * Log an update patch for a block. The first two updates occupy
     * the block's inline version slots; later ones spill into the
     * overflow log with pointer records (Figure 8).
     */
    void updateBlock(uint64_t block, const UpdateOp &op);

    /** Log a whole-block replacement update. */
    void replaceBlock(uint64_t block, const Bytes &content);

    /**
     * Retrieve one block with all updates applied. Performs one PCR
     * + sequencing round trip, plus one more per overflow hop.
     *
     * Every read method takes an optional DecodeService: when one is
     * given, all decode traffic of the call — including overflow-hop
     * decodes — is submitted to it instead of running synchronously,
     * byte-identical to the synchronous path for any service thread
     * count. A Reject-policy service that sheds the request surfaces
     * as OverloadedError here (in the caller's thread); a tenant
     * token bucket that sheds it surfaces as ThrottledError. The
     * routed requests are billed to @p tenant (StorageFrontend
     * passes its per-frontend binding). @p trace parents the call's
     * decode spans — including overflow-hop decodes — under the
     * caller's root span (inactive by default, one branch).
     */
    std::optional<Bytes> readBlock(
        uint64_t block, DecodeService *service = nullptr,
        TenantId tenant = kDefaultTenant,
        const telemetry::TraceContext &trace = {});

    /**
     * Retrieve blocks [lo, hi] via one multiplex PCR. Through a
     * service the decode consumes the reads while they are sequenced:
     * the request is submitted right after PCR, and the reads follow
     * through a ReadFeed in chunks of kFeedChunkReads. Bytes and
     * lastStats() are the synchronous path's.
     */
    std::vector<std::optional<Bytes>> readRange(
        uint64_t lo, uint64_t hi, DecodeService *service = nullptr,
        TenantId tenant = kDefaultTenant,
        const telemetry::TraceContext &trace = {});

    /** Retrieve the whole partition (baseline random access); fed
     *  through a service as readRange() is. */
    std::vector<std::optional<Bytes>> readAll(
        DecodeService *service = nullptr,
        TenantId tenant = kDefaultTenant,
        const telemetry::TraceContext &trace = {});

    /**
     * The wetlab half of readRange(): multiplex PCR over an exact
     * prefix cover of [lo, hi] plus sequencing, no decoding. Pair
     * with assembleRange() — StorageFrontend uses the split to fan
     * many devices' decodes into one DecodeService batch.
     */
    std::vector<sim::Read> sequenceRange(uint64_t lo, uint64_t hi);

    /** The wetlab half of readAll(). */
    std::vector<sim::Read> sequenceAll();

    /**
     * The assembly half of readRange()/readAll(): resolve blocks
     * [lo, hi] from already-decoded units, following overflow hops
     * (extra round trips decode through @p service when given).
     */
    std::vector<std::optional<Bytes>> assembleRange(
        uint64_t lo, uint64_t hi,
        const std::map<uint64_t, BlockVersions> &units,
        DecodeService *service = nullptr,
        TenantId tenant = kDefaultTenant,
        const telemetry::TraceContext &trace = {});

    const sim::Pool &pool() const { return pool_; }
    const Partition &partition() const { return partition_; }
    const Decoder &decoder() const { return decoder_; }
    CostModel &costs() { return costs_; }
    const CostModel &costs() const { return costs_; }

    /** Stats of the most recent decode. */
    const DecodeStats &lastStats() const { return last_stats_; }

    /** Number of updates logged against a block. */
    unsigned updateCount(uint64_t block) const;

    /** Reads per chunk a service-routed readRange()/readAll() pushes
     *  into its decode. Byte-neutral: the decode's result does not
     *  depend on the chunking. */
    static constexpr size_t kFeedChunkReads = 1200;

  private:
    /** A PCR product ready to sequence, with its reads already
     *  billed. */
    struct Amplified
    {
        sim::Pool product;
        /** Seeded from the costs before this round trip. */
        sim::SequencerParams sequencer;
        size_t reads = 0;

        /** All the billed reads at once. */
        std::vector<sim::Read>
        sequence() const
        {
            return sim::sequencePool(product, reads, sequencer);
        }
    };

    BlockDeviceParams params_;
    Partition partition_;
    Decoder decoder_;
    sim::Pool pool_;

    /** pool_'s reverse-primer sites, kept across accesses. Reset
     *  wherever pool_ is replaced; patches only append to pool_. */
    sim::ReverseSiteMemo reverse_sites_;

    CostModel costs_;
    DecodeStats last_stats_;

    uint64_t data_blocks_ = 0;

    /** Updates logged per block. */
    std::map<uint64_t, unsigned> update_counts_;

    /** Overflow containers allocated per block, oldest first. */
    std::map<uint64_t, std::vector<uint64_t>> overflow_chain_;

    /** Next overflow block, allocated from the top of the space. */
    uint64_t next_overflow_;

    /** Synthesize molecules and mix them in at matched concentration. */
    void synthesizeAndMix(const std::vector<sim::DesignedMolecule> &order);

    /** Write one update record into a (container, slot) address. */
    void writeRecord(uint64_t container, unsigned slot,
                     const UpdateRecord &record);

    /** Log an arbitrary record as the next update of @p block. */
    void appendUpdate(uint64_t block, UpdateRecord record);

    /** The PCR half of every round trip: run @p pcr over
     *  @p primers, seed the sequencer from the costs so far, and bill
     *  @p reads and one round trip. */
    Amplified amplify(const std::vector<sim::PcrPrimer> &primers,
                      const sim::PcrParams &pcr, size_t reads);

    /** A targeted (touchdown) reaction over @p primers, plus any
     *  leftover main primers. */
    Amplified amplifyTargeted(std::vector<sim::PcrPrimer> primers,
                              size_t reads);

    /** The PCR halves of sequenceRange() and sequenceAll(). */
    Amplified amplifyRange(uint64_t lo, uint64_t hi);
    Amplified amplifyAll();

    /** One PCR + sequencing round trip scoped to @p primers. */
    std::vector<sim::Read> roundTrip(
        const std::vector<sim::PcrPrimer> &primers, size_t reads);

    /**
     * The decode half of readRange()/readAll(), into last_stats_.
     * Without @p service: sequence the product whole and decodeAll
     * it (sequenceRange()/sequenceAll() + decodeAll). With one: a fed
     * request, submitted before the first read is sequenced, that
     * this thread then feeds chunk by chunk under a sim.sequence span
     * of @p trace. A shed request throws as routedUnits() does, and
     * no read is sequenced for it.
     */
    std::map<uint64_t, BlockVersions> decodeAmplified(
        Amplified amplified, DecodeService *service, TenantId tenant,
        const telemetry::TraceContext &trace);

    /** Apply a block's updates, following overflow hops. */
    std::optional<Bytes> resolveBlock(
        uint64_t block, const std::map<uint64_t, BlockVersions> &units,
        DecodeService *service, TenantId tenant,
        const telemetry::TraceContext &trace);
};

} // namespace dnastore::core

#endif // DNASTORE_CORE_BLOCK_DEVICE_H
