#include "core/pool_manager.h"

#include <utility>

#include "common/rng.h"
#include "core/decode_service.h"
#include "primer/library.h"

namespace dnastore::core {

namespace {

/** How a shed routed read names its caller. */
constexpr const char *kReadCaller = "PoolManager read";

} // namespace

PoolManager::PoolManager(PoolManagerParams params)
    : params_(std::move(params)), costs_(params_.costs)
{
    primer::LibraryGenerator generator(params_.config.primer_length,
                                       params_.primer_constraints,
                                       params_.seed);
    primer_library_ =
        generator
            .generate(params_.primer_search_budget,
                      2 * params_.max_primer_pairs)
            .primers;
    fatalIf(primer_library_.size() < 2,
            "primer library search found no usable pair");
}

size_t
PoolManager::primerPairsAvailable() const
{
    return (primer_library_.size() - next_primer_) / 2;
}

PoolManager::FileState &
PoolManager::stateOf(uint32_t file_id)
{
    auto it = files_.find(file_id);
    fatalIf(it == files_.end(), "unknown file id ", file_id);
    return it->second;
}

const PoolManager::FileState &
PoolManager::stateOf(uint32_t file_id) const
{
    auto it = files_.find(file_id);
    fatalIf(it == files_.end(), "unknown file id ", file_id);
    return it->second;
}

const Partition &
PoolManager::partition(uint32_t file_id) const
{
    return *stateOf(file_id).partition;
}

uint64_t
PoolManager::blockCount(uint32_t file_id) const
{
    return stateOf(file_id).blocks;
}

void
PoolManager::synthesizeAndMix(
    const std::vector<sim::DesignedMolecule> &order)
{
    sim::SynthesisParams synthesis = params_.synthesis;
    synthesis.seed = Rng::deriveSeed(
        params_.synthesis.seed, 0x6000 + costs_.moleculesSynthesized());
    sim::Pool fresh = sim::synthesize(order, synthesis);
    costs_.recordSynthesis(order.size(), params_.config.strand_length);
    if (pool_.speciesCount() == 0) {
        pool_ = std::move(fresh);
        return;
    }
    double pool_per = pool_.totalMass() /
                      static_cast<double>(pool_.speciesCount());
    double fresh_per = fresh.totalMass() /
                       static_cast<double>(fresh.speciesCount());
    pool_.mixIn(fresh, pool_per / fresh_per);
}

uint32_t
PoolManager::storeFile(const Bytes &data)
{
    fatalIf(next_primer_ + 2 > primer_library_.size(),
            "primer library exhausted: cannot address another file");
    uint32_t file_id = next_file_id_++;

    // Every partition gets distinct seeds so trees and scramblers
    // differ across partitions (Section 4.4).
    PartitionConfig config = params_.config;
    config.index_seed =
        Rng::deriveSeed(params_.seed, 0x77ee00 + file_id);
    config.scramble_seed =
        Rng::deriveSeed(params_.seed, 0x5c4a00 + file_id);

    FileState state;
    state.partition = std::make_unique<Partition>(
        config, primer_library_[next_primer_],
        primer_library_[next_primer_ + 1], file_id);
    next_primer_ += 2;
    state.decoder =
        std::make_unique<Decoder>(*state.partition, params_.decoder);
    state.blocks = state.partition->blocksFor(data.size());
    state.file_size = data.size();

    synthesizeAndMix(state.partition->encodeFile(data));
    files_.emplace(file_id, std::move(state));
    return file_id;
}

std::optional<Bytes>
PoolManager::readBlock(uint32_t file_id, uint64_t block,
                       DecodeService *service, TenantId tenant)
{
    FileState &state = stateOf(file_id);
    fatalIf(block >= state.blocks, "block out of range");

    // Stage 1 (Section 7.7.3): isolate the partition with its main
    // primers so indexes of unrelated partitions cannot misprime.
    sim::PcrParams stage1 = params_.pcr;
    stage1.cycles = params_.stage1_cycles;
    sim::Pool isolated = sim::runPcr(
        pool_,
        {sim::PcrPrimer{state.partition->forwardPrimer(), 1.0}},
        state.partition->reversePrimer(), stage1);

    // Stage 2: elongated primer narrows the scope to the block.
    sim::PcrParams stage2 = params_.pcr;
    stage2.cycles = params_.stage2_cycles;
    stage2.stringency = sim::touchdownSchedule(
        params_.stage2_touchdown, params_.stage2_cycles, 3.0);
    sim::Pool accessed = sim::runPcr(
        isolated,
        {sim::PcrPrimer{state.partition->blockPrimer(block), 1.0}},
        state.partition->reversePrimer(), stage2);

    sim::SequencerParams sequencer = params_.sequencer;
    sequencer.seed =
        Rng::deriveSeed(params_.sequencer.seed, costs_.readsSequenced());
    costs_.recordSequencing(params_.reads_per_block_access);
    costs_.recordRoundTrip();
    std::vector<sim::Read> reads = sim::sequencePool(
        accessed, params_.reads_per_block_access, sequencer);

    DecodeStats stats;
    auto units = decodeReads(*state.decoder, std::move(reads), &stats,
                             service, tenant, {}, kReadCaller);
    auto it = units.find(block);
    if (it == units.end() || !it->second.versions.count(0))
        return std::nullopt;
    Bytes base = it->second.versions.at(0);
    base.resize(params_.config.block_data_bytes);
    return state.decoder->applyUpdateChain(base, it->second);
}

std::vector<sim::Read>
PoolManager::sequenceFile(uint32_t file_id)
{
    FileState &state = stateOf(file_id);
    sim::PcrParams stage1 = params_.pcr;
    stage1.cycles = params_.stage1_cycles;
    sim::Pool isolated = sim::runPcr(
        pool_,
        {sim::PcrPrimer{state.partition->forwardPrimer(), 1.0}},
        state.partition->reversePrimer(), stage1);

    size_t budget = static_cast<size_t>(
        20.0 * static_cast<double>(state.blocks *
                                   params_.config.rs_n));
    sim::SequencerParams sequencer = params_.sequencer;
    sequencer.seed =
        Rng::deriveSeed(params_.sequencer.seed, costs_.readsSequenced());
    costs_.recordSequencing(budget);
    costs_.recordRoundTrip();
    return sim::sequencePool(isolated, budget, sequencer);
}

const Decoder &
PoolManager::decoderOf(uint32_t file_id) const
{
    return *stateOf(file_id).decoder;
}

std::optional<Bytes>
PoolManager::assembleFile(
    uint32_t file_id,
    const std::map<uint64_t, BlockVersions> &units) const
{
    const FileState &state = stateOf(file_id);
    Bytes result;
    result.reserve(state.blocks * params_.config.block_data_bytes);
    for (uint64_t block = 0; block < state.blocks; ++block) {
        auto it = units.find(block);
        if (it == units.end() || !it->second.versions.count(0))
            return std::nullopt;
        Bytes base = it->second.versions.at(0);
        base.resize(params_.config.block_data_bytes);
        Bytes content =
            state.decoder->applyUpdateChain(base, it->second);
        result.insert(result.end(), content.begin(), content.end());
    }
    result.resize(state.file_size);
    return result;
}

std::optional<Bytes>
PoolManager::readFile(uint32_t file_id, DecodeService *service,
                      TenantId tenant,
                      const telemetry::TraceContext &trace)
{
    std::vector<sim::Read> reads = sequenceFile(file_id);
    auto units = decodeReads(*stateOf(file_id).decoder, std::move(reads),
                             nullptr, service, tenant, trace, kReadCaller);
    return assembleFile(file_id, units);
}

void
PoolManager::updateBlock(uint32_t file_id, uint64_t block,
                         const UpdateOp &op)
{
    FileState &state = stateOf(file_id);
    fatalIf(block >= state.blocks, "block out of range");
    unsigned &count = state.update_counts[block];
    fatalIf(count + 1 >= index::SparseIndexTree::kVersionSlots,
            "inline version slots exhausted; use BlockDevice for "
            "overflow-log support");
    UpdateRecord record;
    record.kind = UpdateRecord::Kind::kInline;
    record.op = op;
    synthesizeAndMix(
        state.partition->encodePatch(block, record, count + 1));
    ++count;
}

} // namespace dnastore::core
