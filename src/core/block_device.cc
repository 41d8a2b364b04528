#include "core/block_device.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "common/rng.h"
#include "core/decode_service.h"

namespace dnastore::core {

namespace {

/** How a shed routed read names its caller. */
constexpr const char *kReadCaller = "BlockDevice read";

} // namespace

BlockDevice::BlockDevice(BlockDeviceParams params, dna::Sequence forward,
                         dna::Sequence reverse, uint32_t file_id)
    : params_(params),
      partition_(params.config, std::move(forward), std::move(reverse),
                 file_id),
      decoder_(partition_, params.decoder), costs_(params.costs),
      next_overflow_(partition_.tree().leafCount() - 1)
{}

void
BlockDevice::writeFile(const Bytes &data)
{
    std::vector<sim::DesignedMolecule> order =
        partition_.encodeFile(data);
    data_blocks_ = partition_.blocksFor(data.size());
    update_counts_.clear();
    overflow_chain_.clear();
    next_overflow_ = partition_.tree().leafCount() - 1;

    pool_ = sim::Pool();
    reverse_sites_ = {};
    sim::SynthesisParams synthesis = params_.synthesis;
    pool_ = sim::synthesize(order, synthesis);
    costs_.recordSynthesis(order.size(), params_.config.strand_length);
}

void
BlockDevice::synthesizeAndMix(
    const std::vector<sim::DesignedMolecule> &order)
{
    sim::SynthesisParams synthesis = params_.synthesis;
    // A patch is a separate synthesis order: use a fresh seed stream.
    synthesis.seed =
        Rng::deriveSeed(params_.synthesis.seed,
                        0x9000 + costs_.moleculesSynthesized());
    sim::Pool patch = sim::synthesize(order, synthesis);
    costs_.recordSynthesis(order.size(), params_.config.strand_length);

    if (pool_.speciesCount() == 0) {
        pool_ = std::move(patch);
        reverse_sites_ = {};
        return;
    }
    // Concentration-matched mixing (Section 5.5): equalize the
    // per-unique-molecule mass of the patch with the existing pool.
    double pool_per_molecule =
        pool_.totalMass() / static_cast<double>(pool_.speciesCount());
    double patch_per_molecule =
        patch.totalMass() / static_cast<double>(patch.speciesCount());
    pool_.mixIn(patch, pool_per_molecule / patch_per_molecule);
}

void
BlockDevice::writeRecord(uint64_t container, unsigned slot,
                         const UpdateRecord &record)
{
    panicIf(container == 0 && slot == 0 && data_blocks_ > 0,
            "attempt to overwrite original data slot");
    Bytes payload =
        record.serialize(params_.config.unitDataBytes());
    synthesizeAndMix(partition_.encodeBlock(container, payload, slot));
}

void
BlockDevice::appendUpdate(uint64_t block, UpdateRecord record)
{
    fatalIf(block >= data_blocks_, "update to unwritten block ", block);
    unsigned n = 0;
    auto it = update_counts_.find(block);
    if (it != update_counts_.end())
        n = it->second;

    constexpr unsigned kInlineSlots =
        index::SparseIndexTree::kVersionSlots - 2;  // versions 1, 2
    constexpr unsigned kContainerSlots =
        index::SparseIndexTree::kVersionSlots - 1;  // slots 0..2

    if (n < kInlineSlots) {
        writeRecord(block, n + 1, record);
    } else {
        unsigned chain_index = (n - kInlineSlots) / kContainerSlots;
        unsigned slot = (n - kInlineSlots) % kContainerSlots;
        std::vector<uint64_t> &chain = overflow_chain_[block];
        if (slot == 0) {
            fatalIf(next_overflow_ <= data_blocks_,
                    "address space exhausted by the overflow log");
            uint64_t container = next_overflow_--;
            uint64_t prev =
                chain.empty() ? block : chain.back();
            UpdateRecord pointer;
            pointer.kind = UpdateRecord::Kind::kOverflowPointer;
            pointer.overflow_block = container;
            writeRecord(prev,
                        index::SparseIndexTree::kVersionSlots - 1,
                        pointer);
            chain.push_back(container);
        }
        writeRecord(chain[chain_index], slot, record);
    }
    update_counts_[block] = n + 1;
}

void
BlockDevice::updateBlock(uint64_t block, const UpdateOp &op)
{
    UpdateRecord record;
    record.kind = UpdateRecord::Kind::kInline;
    record.op = op;
    appendUpdate(block, std::move(record));
}

void
BlockDevice::replaceBlock(uint64_t block, const Bytes &content)
{
    fatalIf(content.size() > params_.config.block_data_bytes,
            "replacement larger than a block");
    UpdateRecord record;
    record.kind = UpdateRecord::Kind::kReplace;
    record.replacement = content;
    appendUpdate(block, std::move(record));
}

unsigned
BlockDevice::updateCount(uint64_t block) const
{
    auto it = update_counts_.find(block);
    return it == update_counts_.end() ? 0 : it->second;
}

BlockDevice::Amplified
BlockDevice::amplify(const std::vector<sim::PcrPrimer> &primers,
                     const sim::PcrParams &pcr, size_t reads)
{
    Amplified amplified;
    amplified.product = sim::runPcr(pool_, primers,
                                    partition_.reversePrimer(), pcr,
                                    nullptr, &reverse_sites_);
    amplified.sequencer = params_.sequencer;
    amplified.sequencer.seed =
        Rng::deriveSeed(params_.sequencer.seed, costs_.readsSequenced());
    amplified.reads = reads;
    costs_.recordSequencing(reads);
    costs_.recordRoundTrip();
    return amplified;
}

BlockDevice::Amplified
BlockDevice::amplifyTargeted(std::vector<sim::PcrPrimer> primers,
                             size_t reads)
{
    fatalIf(pool_.speciesCount() == 0, "device has no data");
    sim::PcrParams pcr = params_.pcr;
    pcr.cycles = params_.block_access_cycles;
    pcr.stringency = sim::touchdownSchedule(
        params_.touchdown_cycles, params_.block_access_cycles);
    if (params_.leftover_primer_concentration > 0.0) {
        primers.push_back(
            sim::PcrPrimer{partition_.forwardPrimer(),
                           params_.leftover_primer_concentration});
    }
    return amplify(primers, pcr, reads);
}

BlockDevice::Amplified
BlockDevice::amplifyRange(uint64_t lo, uint64_t hi)
{
    fatalIf(lo > hi || hi >= data_blocks_, "invalid block range");
    std::vector<dna::Sequence> primer_seqs =
        partition_.rangePrimers(lo, hi);
    std::vector<sim::PcrPrimer> primers;
    primers.reserve(primer_seqs.size());
    double share = 1.0 / static_cast<double>(primer_seqs.size());
    for (dna::Sequence &seq : primer_seqs)
        primers.push_back(sim::PcrPrimer{std::move(seq), share});

    size_t budget = static_cast<size_t>(
        params_.coverage *
        static_cast<double>((hi - lo + 1) * params_.config.rs_n) * 4.0);
    return amplifyTargeted(std::move(primers), budget);
}

BlockDevice::Amplified
BlockDevice::amplifyAll()
{
    fatalIf(data_blocks_ == 0, "device has no data");
    size_t budget = static_cast<size_t>(
        params_.coverage * static_cast<double>(pool_.speciesCount()));
    sim::PcrParams pcr = params_.pcr;
    pcr.cycles = 15;  // plain amplification, no touchdown
    return amplify({sim::PcrPrimer{partition_.forwardPrimer(), 1.0}},
                   pcr, budget);
}

std::vector<sim::Read>
BlockDevice::roundTrip(const std::vector<sim::PcrPrimer> &primers,
                       size_t reads)
{
    return amplifyTargeted(primers, reads).sequence();
}

std::map<uint64_t, BlockVersions>
BlockDevice::decodeAmplified(Amplified amplified, DecodeService *service,
                             TenantId tenant,
                             const telemetry::TraceContext &trace)
{
    last_stats_ = DecodeStats();
    if (!service) {
        std::vector<sim::Read> reads = amplified.sequence();
        // The product's teardown precedes the decode, not follows it.
        amplified.product = sim::Pool();
        return decoder_.decodeAll(std::move(reads), &last_stats_,
                                  ThreadPool::shared(), trace);
    }
    ReadFeedWriter writer;
    std::future<DecodeOutcome> outcome =
        service->submit(decoder_, writer, tenant, trace);
    // A shed request's future is ready at submit: sequence nothing.
    // Otherwise the decode filters and clusters chunk k on the
    // dispatcher while this thread sequences chunk k + 1.
    if (outcome.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
        telemetry::SpanHandle span = trace.span("sim.sequence");
        span.attrU64("reads", amplified.reads);
        sim::Sequencer sequencer(amplified.product, amplified.sequencer);
        for (size_t done = 0; done < amplified.reads;) {
            const size_t n =
                std::min(amplified.reads - done, kFeedChunkReads);
            writer.push(sequencer.next(n));
            done += n;
        }
        writer.close();
        span.end();
    }
    // Tear the product down while the decode finishes its last chunk,
    // not after the decode.
    amplified.product = sim::Pool();
    return routedUnits(outcome.get(), &last_stats_, kReadCaller);
}

std::optional<Bytes>
BlockDevice::resolveBlock(
    uint64_t block, const std::map<uint64_t, BlockVersions> &units,
    DecodeService *service, TenantId tenant,
    const telemetry::TraceContext &trace)
{
    auto it = units.find(block);
    if (it == units.end())
        return std::nullopt;
    auto base_it = it->second.versions.find(0);
    if (base_it == it->second.versions.end())
        return std::nullopt;

    std::optional<uint64_t> overflow;
    Bytes current =
        decoder_.applyUpdateChain(base_it->second, it->second, &overflow);

    // Containers are allocated top-down above the data blocks, so
    // each hop of a real chain lands strictly below the previous
    // container. Any other pointer is a bad record: the chain ends
    // at the bytes assembled so far.
    uint64_t ceiling = partition_.tree().leafCount();
    // Units decoded by this block's own hops. A container already in
    // @p units wins over a fetched copy, and an earlier hop's copy
    // over a later one.
    std::map<uint64_t, BlockVersions> fetched;
    auto lookup = [&](uint64_t container) -> const BlockVersions * {
        auto found = units.find(container);
        if (found != units.end())
            return &found->second;
        auto hop = fetched.find(container);
        return hop == fetched.end() ? nullptr : &hop->second;
    };
    while (overflow) {
        uint64_t container = *overflow;
        if (container <= data_blocks_ || container >= ceiling)
            break;
        ceiling = container;
        const BlockVersions *versions = lookup(container);
        if (!versions) {
            // Overflow hop: one more targeted round trip.
            std::vector<sim::Read> reads = roundTrip(
                {sim::PcrPrimer{partition_.blockPrimer(container),
                                1.0}},
                params_.reads_per_block_access);
            DecodeStats stats;
            for (auto &entry :
                 decodeReads(decoder_, std::move(reads), &stats, service,
                             tenant, trace, kReadCaller))
                fetched.insert(std::move(entry));
            versions = lookup(container);
            if (!versions)
                return std::nullopt;  // overflow data unrecoverable
        }
        // Containers hold records in every slot (0..2, 3 = pointer).
        current = decoder_.applyUpdateChain(current, *versions,
                                            &overflow, 0);
    }
    return current;
}

std::optional<Bytes>
BlockDevice::readBlock(uint64_t block, DecodeService *service,
                       TenantId tenant,
                       const telemetry::TraceContext &trace)
{
    fatalIf(block >= data_blocks_, "block ", block, " was never written");
    std::vector<sim::Read> reads = roundTrip(
        {sim::PcrPrimer{partition_.blockPrimer(block), 1.0}},
        params_.reads_per_block_access);
    last_stats_ = DecodeStats();
    auto units = decodeReads(decoder_, std::move(reads), &last_stats_,
                             service, tenant, trace, kReadCaller);
    return resolveBlock(block, units, service, tenant, trace);
}

std::vector<sim::Read>
BlockDevice::sequenceRange(uint64_t lo, uint64_t hi)
{
    return amplifyRange(lo, hi).sequence();
}

std::vector<sim::Read>
BlockDevice::sequenceAll()
{
    return amplifyAll().sequence();
}

std::vector<std::optional<Bytes>>
BlockDevice::assembleRange(
    uint64_t lo, uint64_t hi,
    const std::map<uint64_t, BlockVersions> &units,
    DecodeService *service, TenantId tenant,
    const telemetry::TraceContext &trace)
{
    fatalIf(lo > hi || hi >= data_blocks_, "invalid block range");
    std::vector<std::optional<Bytes>> result;
    result.reserve(hi - lo + 1);
    for (uint64_t block = lo; block <= hi; ++block)
        result.push_back(
            resolveBlock(block, units, service, tenant, trace));
    return result;
}

std::vector<std::optional<Bytes>>
BlockDevice::readRange(uint64_t lo, uint64_t hi,
                       DecodeService *service, TenantId tenant,
                       const telemetry::TraceContext &trace)
{
    auto units =
        decodeAmplified(amplifyRange(lo, hi), service, tenant, trace);
    return assembleRange(lo, hi, units, service, tenant, trace);
}

std::vector<std::optional<Bytes>>
BlockDevice::readAll(DecodeService *service, TenantId tenant,
                     const telemetry::TraceContext &trace)
{
    auto units = decodeAmplified(amplifyAll(), service, tenant, trace);
    return assembleRange(0, data_blocks_ - 1, units, service, tenant,
                         trace);
}

} // namespace dnastore::core
