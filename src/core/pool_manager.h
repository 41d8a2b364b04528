/**
 * @file
 * Multi-partition pool management (paper Sections 6.1 and 7.7.3).
 *
 * A physical DNA pool holds many partitions (the wetlab stores 13
 * files). The PoolManager owns the shared pool, assigns mutually
 * compatible primer pairs from a generated library, gives every
 * partition distinct index/scrambler seeds (Section 4.4), and
 * implements the two-stage PCR protocol of Section 7.7.3 for block
 * reads: stage one isolates the target partition with its main
 * primers; stage two applies the elongated primer, avoiding
 * cross-partition index collisions.
 */

#ifndef DNASTORE_CORE_POOL_MANAGER_H
#define DNASTORE_CORE_POOL_MANAGER_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/cost.h"
#include "core/decoder.h"
#include "core/partition.h"
#include "core/tenant.h"
#include "primer/constraints.h"
#include "sim/pcr.h"
#include "sim/sequencer.h"
#include "sim/synthesis.h"

namespace dnastore::core {

class DecodeService;

/** Knobs for the manager and its simulated wetlab. */
struct PoolManagerParams
{
    PartitionConfig config;
    sim::SynthesisParams synthesis;
    sim::PcrParams pcr;
    sim::SequencerParams sequencer;
    DecoderParams decoder;
    CostParams costs;

    /** Primer library search parameters. */
    primer::Constraints primer_constraints;
    uint64_t primer_search_budget = 300000;

    /** Primer pairs to find upfront (the search stops early once
     *  this many are available; raise it for pools with many
     *  files). */
    size_t max_primer_pairs = 32;

    uint64_t seed = 0x9001;

    /** Stage-1 (partition isolation) PCR cycles. */
    unsigned stage1_cycles = 12;

    /** Stage-2 (block isolation) PCR cycles and touchdown. */
    unsigned stage2_cycles = 24;
    unsigned stage2_touchdown = 8;

    /** Reads sequenced per block access. */
    size_t reads_per_block_access = 1200;
};

class PoolManager
{
  public:
    explicit PoolManager(PoolManagerParams params);

    /**
     * Store a file as a new partition; returns its file id. Primer
     * pairs are drawn from the library in order; throws FatalError
     * when the library is exhausted.
     */
    uint32_t storeFile(const Bytes &data);

    /** Number of partitions stored. */
    size_t fileCount() const { return files_.size(); }

    /** Blocks held by a file. */
    uint64_t blockCount(uint32_t file_id) const;

    /**
     * Read one block of one file with the two-stage protocol. When a
     * DecodeService is given, the decode is submitted to it instead
     * of running synchronously (byte-identical either way), billed
     * to @p tenant; a Reject-policy service that sheds the request
     * surfaces as OverloadedError in the caller's thread, a tenant
     * token bucket as ThrottledError.
     */
    std::optional<Bytes> readBlock(uint32_t file_id, uint64_t block,
                                   DecodeService *service = nullptr,
                                   TenantId tenant = kDefaultTenant);

    /** Read a whole file (stage-1 PCR only, full decode). Routes the
     *  decode through @p service when one is given, billed to
     *  @p tenant; @p trace parents the decode's spans under the
     *  caller's root span. */
    std::optional<Bytes> readFile(
        uint32_t file_id, DecodeService *service = nullptr,
        TenantId tenant = kDefaultTenant,
        const telemetry::TraceContext &trace = {});

    /**
     * The wetlab half of readFile(): stage-1 PCR isolation plus
     * sequencing, no decoding. Pair with decoderOf()/assembleFile() —
     * StorageFrontend uses the split to fan many files' decodes into
     * one DecodeService batch.
     */
    std::vector<sim::Read> sequenceFile(uint32_t file_id);

    /** Decoder bound to a file's partition. */
    const Decoder &decoderOf(uint32_t file_id) const;

    /** The assembly half of readFile(): stitch decoded units back
     *  into file bytes (nullopt when any block is missing). */
    std::optional<Bytes> assembleFile(
        uint32_t file_id,
        const std::map<uint64_t, BlockVersions> &units) const;

    /** Log an update patch against a file's block. */
    void updateBlock(uint32_t file_id, uint64_t block,
                     const UpdateOp &op);

    /** Primer pairs still available for new files. */
    size_t primerPairsAvailable() const;

    const sim::Pool &pool() const { return pool_; }
    const CostModel &costs() const { return costs_; }
    const Partition &partition(uint32_t file_id) const;

  private:
    PoolManagerParams params_;
    std::vector<dna::Sequence> primer_library_;
    size_t next_primer_ = 0;
    sim::Pool pool_;
    CostModel costs_;

    struct FileState
    {
        std::unique_ptr<Partition> partition;
        std::unique_ptr<Decoder> decoder;
        uint64_t blocks = 0;
        size_t file_size = 0;
        std::map<uint64_t, unsigned> update_counts;
    };
    std::map<uint32_t, FileState> files_;
    uint32_t next_file_id_ = 1;

    FileState &stateOf(uint32_t file_id);
    const FileState &stateOf(uint32_t file_id) const;

    /** Mix a fresh synthesis order into the shared pool. */
    void synthesizeAndMix(const std::vector<sim::DesignedMolecule> &order);
};

} // namespace dnastore::core

#endif // DNASTORE_CORE_POOL_MANAGER_H
