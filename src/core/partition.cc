#include "core/partition.h"

#include "codec/base_codec.h"
#include "common/thread_pool.h"
#include "core/layout.h"

namespace dnastore::core {

Partition::Partition(PartitionConfig config, dna::Sequence forward,
                     dna::Sequence reverse, uint32_t file_id)
    : config_(config), forward_(std::move(forward)),
      reverse_(std::move(reverse)), file_id_(file_id),
      tree_(config.index_seed, config.tree_depth),
      codec_(config.rs_n, config.rs_k, config.columnBytes()),
      scrambler_(config.scramble_seed),
      elongation_(forward_, config.sync_base)
{
    config_.validate();
    fatalIf(forward_.size() != config_.primer_length,
            "forward primer must be ", config_.primer_length, " bases");
    fatalIf(reverse_.size() != config_.primer_length,
            "reverse primer must be ", config_.primer_length, " bases");
}

uint64_t
Partition::blocksFor(size_t data_size) const
{
    return (data_size + config_.block_data_bytes - 1) /
           config_.block_data_bytes;
}

std::vector<sim::DesignedMolecule>
Partition::encodeFile(const Bytes &data, ThreadPool &pool) const
{
    uint64_t blocks = blocksFor(data.size());
    fatalIf(blocks > tree_.leafCount(),
            "file needs ", blocks, " blocks but the partition has ",
            tree_.leafCount());

    // Blocks are independent (the scrambler, outer codec and index
    // tree are all stateless per call), so per-block encoding fans
    // out; the slots are concatenated in block order below, keeping
    // the molecule stream byte-identical to the sequential path.
    std::vector<std::vector<sim::DesignedMolecule>> per_block(blocks);
    pool.parallelFor(blocks, [&](size_t block) {
        size_t offset = block * config_.block_data_bytes;
        size_t len =
            std::min(config_.block_data_bytes, data.size() - offset);
        Bytes payload(data.begin() + static_cast<ptrdiff_t>(offset),
                      data.begin() + static_cast<ptrdiff_t>(offset + len));
        per_block[block] = encodeBlock(block, payload, 0);
    });

    std::vector<sim::DesignedMolecule> molecules;
    molecules.reserve(blocks * config_.rs_n);
    for (std::vector<sim::DesignedMolecule> &block_molecules : per_block) {
        for (sim::DesignedMolecule &molecule : block_molecules)
            molecules.push_back(std::move(molecule));
    }
    return molecules;
}

uint64_t
Partition::streamId(uint64_t block, unsigned version) const
{
    return block * index::SparseIndexTree::kVersionSlots + version;
}

std::vector<sim::DesignedMolecule>
Partition::encodeBlock(uint64_t block, const Bytes &payload,
                       unsigned version) const
{
    fatalIf(payload.size() > config_.unitDataBytes(),
            "block payload of ", payload.size(), "B exceeds the ",
            config_.unitDataBytes(), "B unit");
    fatalIf(block >= tree_.leafCount(), "block id out of range");

    // Pad to the unit size; the scrambler randomizes the padding.
    Bytes unit = payload;
    unit.resize(config_.unitDataBytes(), 0);
    scrambler_.apply(unit, streamId(block, version));

    std::vector<Bytes> columns = codec_.encode(unit);
    dna::Sequence sparse_index = tree_.leafIndex(block);
    dna::Base version_base = tree_.versionBase(block, version);

    std::vector<sim::DesignedMolecule> molecules;
    molecules.reserve(columns.size());
    for (unsigned c = 0; c < columns.size(); ++c) {
        sim::DesignedMolecule molecule;
        molecule.seq = buildStrand(
            config_, forward_, reverse_, sparse_index, version_base, c,
            codec::bytesToBases(columns[c]));
        molecule.info.file_id = file_id_;
        molecule.info.block = block;
        molecule.info.version = static_cast<uint8_t>(version);
        molecule.info.column = static_cast<uint8_t>(c);
        molecules.push_back(std::move(molecule));
    }
    return molecules;
}

std::vector<sim::DesignedMolecule>
Partition::encodePatch(uint64_t block, const UpdateRecord &record,
                       unsigned version) const
{
    fatalIf(version == 0, "version 0 is reserved for original data");
    Bytes payload = record.serialize(config_.unitDataBytes());
    return encodeBlock(block, payload, version);
}

Bytes
Partition::unscrambleUnit(const Bytes &unit, uint64_t block,
                          unsigned version) const
{
    Bytes data = unscrambleUnitRaw(unit, block, version);
    data.resize(config_.block_data_bytes);
    return data;
}

Bytes
Partition::unscrambleUnitRaw(const Bytes &unit, uint64_t block,
                             unsigned version) const
{
    fatalIf(unit.size() != config_.unitDataBytes(),
            "unit size mismatch");
    return scrambler_.applied(unit, streamId(block, version));
}

dna::Sequence
Partition::blockPrimer(uint64_t block) const
{
    return elongation_.build(tree_.leafIndex(block));
}

std::vector<dna::Sequence>
Partition::rangePrimers(uint64_t lo, uint64_t hi) const
{
    std::vector<index::PhysicalPrefix> cover =
        index::physicalCover(tree_, lo, hi);
    std::vector<dna::Sequence> primers;
    primers.reserve(cover.size());
    for (const index::PhysicalPrefix &prefix : cover)
        primers.push_back(elongation_.build(prefix.physical));
    return primers;
}

} // namespace dnastore::core
