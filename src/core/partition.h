/**
 * @file
 * Partition: the paper's central abstraction (Section 3.1).
 *
 * A partition is the storage space defined by one pair of main PCR
 * primers. It owns a PCR-navigable sparse index tree, encodes files
 * into blocks of molecules, produces update patches, and builds the
 * elongated primers that retrieve individual blocks or ranges.
 */

#ifndef DNASTORE_CORE_PARTITION_H
#define DNASTORE_CORE_PARTITION_H

#include <cstdint>
#include <vector>

#include "codec/scrambler.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/update.h"
#include "ecc/encoding_unit.h"
#include "index/range_cover.h"
#include "index/sparse_index.h"
#include "primer/elongation.h"
#include "sim/synthesis.h"

namespace dnastore::core {

class Partition
{
  public:
    /**
     * @param config  geometry and seeds (validated)
     * @param forward main forward primer (config.primer_length bases)
     * @param reverse main reverse primer
     * @param file_id provenance tag used by the simulator
     */
    Partition(PartitionConfig config, dna::Sequence forward,
              dna::Sequence reverse, uint32_t file_id);

    const PartitionConfig &config() const { return config_; }
    const dna::Sequence &forwardPrimer() const { return forward_; }
    const dna::Sequence &reversePrimer() const { return reverse_; }
    const index::SparseIndexTree &tree() const { return tree_; }
    uint32_t fileId() const { return file_id_; }

    /** Blocks needed to store @p data_size bytes. */
    uint64_t blocksFor(size_t data_size) const;

    /**
     * Encode a whole file: splits into block_data_bytes blocks
     * (zero-padding the tail), assigns block i to leaf i, and
     * returns all designed molecules in block order.
     *
     * Blocks fan out over @p pool, the process's ThreadPool::shared()
     * by default, and are concatenated in block order. Per-block
     * encoding is pure (scrambler keystreams and index-tree plans are
     * recomputed per call from seeds), so the molecules are
     * byte-identical, in the same order, for any pool size.
     */
    std::vector<sim::DesignedMolecule> encodeFile(
        const Bytes &data,
        ThreadPool &pool = ThreadPool::shared()) const;

    /**
     * Encode one block's payload as the given version slot (0 for
     * original data, 1..3 for update patches). The payload may be at
     * most block_data_bytes long; it is zero-padded to the unit size
     * and scrambled before the outer code is applied.
     */
    std::vector<sim::DesignedMolecule> encodeBlock(uint64_t block,
                                                   const Bytes &payload,
                                                   unsigned version) const;

    /** Encode an update record as a patch for @p block / @p version. */
    std::vector<sim::DesignedMolecule> encodePatch(
        uint64_t block, const UpdateRecord &record,
        unsigned version) const;

    /** Descramble and trim a decoded unit back to block bytes. */
    Bytes unscrambleUnit(const Bytes &unit, uint64_t block,
                         unsigned version) const;

    /** Descramble a unit but keep the full unit payload. */
    Bytes unscrambleUnitRaw(const Bytes &unit, uint64_t block,
                            unsigned version) const;

    /** The 20+1-base stem every elongated primer starts with. */
    const primer::ElongationBuilder &elongation() const
    {
        return elongation_;
    }

    /** Elongated primer selecting exactly one block (all versions). */
    dna::Sequence blockPrimer(uint64_t block) const;

    /** Elongated primers covering blocks [lo, hi] exactly. */
    std::vector<dna::Sequence> rangePrimers(uint64_t lo,
                                            uint64_t hi) const;

    /** The outer-code codec for this geometry. */
    const ecc::EncodingUnitCodec &unitCodec() const { return codec_; }

  private:
    PartitionConfig config_;
    dna::Sequence forward_;
    dna::Sequence reverse_;
    uint32_t file_id_;
    index::SparseIndexTree tree_;
    ecc::EncodingUnitCodec codec_;
    codec::Scrambler scrambler_;
    primer::ElongationBuilder elongation_;

    /** Scrambler stream id for a (block, version) unit. */
    uint64_t streamId(uint64_t block, unsigned version) const;
};

} // namespace dnastore::core

#endif // DNASTORE_CORE_PARTITION_H
