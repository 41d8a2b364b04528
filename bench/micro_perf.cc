/**
 * @file
 * google-benchmark microbenchmarks for the hot paths of the
 * pipeline: outer-code encode/decode, sparse-index generation and
 * decoding, clustering, trace reconstruction, a PCR cycle, a
 * device's simulated wetlab half (PCR plus sequencing), and a range
 * read through a DecodeService end to end.
 */

#include <cstdlib>
#include <cstring>
#include <memory>

#include <benchmark/benchmark.h>

#include "cluster/clusterer.h"
#include "common/arena.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "dna/distance.h"
#include "consensus/bma.h"
#include "core/block_device.h"
#include "core/decode_service.h"
#include "corpus/text.h"
#include "ecc/encoding_unit.h"
#include "ecc/reed_solomon.h"
#include "index/sparse_index.h"
#include "sim/pcr.h"
#include "sim/sequencer.h"
#include "sim/synthesis.h"

namespace {

using namespace dnastore;

/** Pool size for the *Parallel benchmarks; set by --threads
 *  (0 = hardware concurrency). */
size_t g_threads = 0;

dna::Sequence
randomSeq(Rng &rng, size_t len)
{
    std::vector<dna::Base> bases(len);
    for (dna::Base &base : bases)
        base = static_cast<dna::Base>(rng.nextBelow(4));
    return dna::Sequence(bases);
}

void
BM_RsEncode(benchmark::State &state)
{
    ecc::ReedSolomon rs(15, 11);
    Rng rng(1);
    std::vector<uint8_t> data(11);
    for (uint8_t &symbol : data)
        symbol = static_cast<uint8_t>(rng.nextBelow(16));
    for (auto _ : state)
        benchmark::DoNotOptimize(rs.encode(data));
}
BENCHMARK(BM_RsEncode);

void
BM_RsDecodeTwoErrors(benchmark::State &state)
{
    ecc::ReedSolomon rs(15, 11);
    Rng rng(2);
    std::vector<uint8_t> data(11);
    for (uint8_t &symbol : data)
        symbol = static_cast<uint8_t>(rng.nextBelow(16));
    std::vector<uint8_t> codeword = rs.encode(data);
    codeword[2] ^= 0x5;
    codeword[9] ^= 0xa;
    for (auto _ : state)
        benchmark::DoNotOptimize(rs.decode(codeword));
}
BENCHMARK(BM_RsDecodeTwoErrors);

void
BM_UnitEncode(benchmark::State &state)
{
    ecc::EncodingUnitCodec codec(15, 11, 24);
    Rng rng(3);
    ecc::Bytes unit(264);
    for (uint8_t &byte : unit)
        byte = static_cast<uint8_t>(rng.nextBelow(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.encode(unit));
}
BENCHMARK(BM_UnitEncode);

/**
 * A clean unit, the path most units take: one gf16_syndromes pass
 * over 15 columns x 4 parity x 48 rows, then a copy of the data rows.
 * The erasure row below is dominated by the per-row decoder instead.
 */
void
BM_UnitDecodeClean(benchmark::State &state)
{
    ecc::EncodingUnitCodec codec(15, 11, 24);
    Rng rng(5);
    ecc::Bytes unit(264);
    for (uint8_t &byte : unit)
        byte = static_cast<uint8_t>(rng.nextBelow(256));
    std::vector<ecc::Bytes> columns = codec.encode(unit);
    std::vector<std::optional<ecc::Bytes>> received(columns.begin(),
                                                    columns.end());
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.decode(received));
}
BENCHMARK(BM_UnitDecodeClean);

void
BM_UnitDecodeWithErasures(benchmark::State &state)
{
    ecc::EncodingUnitCodec codec(15, 11, 24);
    Rng rng(4);
    ecc::Bytes unit(264);
    for (uint8_t &byte : unit)
        byte = static_cast<uint8_t>(rng.nextBelow(256));
    std::vector<ecc::Bytes> columns = codec.encode(unit);
    std::vector<std::optional<ecc::Bytes>> received(columns.begin(),
                                                    columns.end());
    received[3].reset();
    received[8].reset();
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.decode(received));
}
BENCHMARK(BM_UnitDecodeWithErasures);

void
BM_BandedLevenshtein(benchmark::State &state)
{
    // The clusterer's accepting call: 150-base reads three edits
    // apart against threshold 8, so the diagonal transition stops
    // at its pass for three edits.
    Rng rng(8);
    dna::Sequence a = randomSeq(rng, 150);
    std::string mutated = a.str();
    mutated[31] = mutated[31] == 'A' ? 'C' : 'A';
    mutated.erase(77, 1);
    mutated.insert(120, 1, 'G');
    dna::Sequence b{std::string(mutated)};
    for (auto _ : state)
        benchmark::DoNotOptimize(dna::bandedLevenshtein(a, b, 8));
}
BENCHMARK(BM_BandedLevenshtein);

void
BM_BandedLevenshteinMiss(benchmark::State &state)
{
    // The clusterer's rejecting call, most of its distance tests: a
    // candidate from another molecule shares only the 31-base prefix
    // (primer, sync base, index), so every pass up to the threshold
    // runs before the answer is "farther than 8".
    Rng rng(10);
    dna::Sequence prefix = randomSeq(rng, 31);
    dna::Sequence a = prefix + randomSeq(rng, 119);
    dna::Sequence b = prefix + randomSeq(rng, 119);
    for (auto _ : state)
        benchmark::DoNotOptimize(dna::bandedLevenshtein(a, b, 8));
}
BENCHMARK(BM_BandedLevenshteinMiss);

void
BM_AlignPrimerToPrefix(benchmark::State &state)
{
    Rng rng(9);
    dna::Sequence primer = randomSeq(rng, 20);
    dna::Sequence read = primer + randomSeq(rng, 130);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dna::alignPrimerToPrefix(primer, read, 6));
    }
}
BENCHMARK(BM_AlignPrimerToPrefix);

void
BM_SparseLeafIndex(benchmark::State &state)
{
    index::SparseIndexTree tree(42, 5);
    uint64_t block = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tree.leafIndex(block));
        block = (block + 1) & 1023;
    }
}
BENCHMARK(BM_SparseLeafIndex);

void
BM_SparseDecodeNearest(benchmark::State &state)
{
    index::SparseIndexTree tree(42, 5);
    dna::Sequence index = tree.leafIndex(531);
    for (auto _ : state)
        benchmark::DoNotOptimize(tree.decodeNearest(index));
}
BENCHMARK(BM_SparseDecodeNearest);

void
BM_ClusterReads(benchmark::State &state)
{
    Rng rng(5);
    std::vector<dna::Sequence> reads;
    for (int origin = 0; origin < 50; ++origin) {
        dna::Sequence center = randomSeq(rng, 150);
        for (int copy = 0; copy < 20; ++copy)
            reads.push_back(center);
    }
    cluster::ClustererParams params;
    for (auto _ : state)
        benchmark::DoNotOptimize(cluster::clusterReads(reads, params));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(reads.size()));
}
BENCHMARK(BM_ClusterReads);

void
BM_ClusterReadsParallel(benchmark::State &state)
{
    Rng rng(5);
    std::vector<dna::Sequence> reads;
    for (int origin = 0; origin < 50; ++origin) {
        dna::Sequence center = randomSeq(rng, 150);
        for (int copy = 0; copy < 20; ++copy)
            reads.push_back(center);
    }
    cluster::ClustererParams params;
    ThreadPool pool(g_threads);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cluster::clusterReads(reads, params, &pool));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(reads.size()));
    state.counters["threads"] =
        static_cast<double>(pool.threadCount());
}
BENCHMARK(BM_ClusterReadsParallel);

/** The cluster stage at its operating point in a decode: 40 random
 *  150-base strands that share one 20-base prefix and one 20-base
 *  suffix, as a partition's strands share the forward primer and the
 *  reverse-primer site, and 1,200 reads (30 per strand on average)
 *  through the sequencer's default channel, clustered on one thread
 *  with the decoder's signature window (the 110-base strand body).
 *  Unlike BM_ClusterReads, every read pays the MinHash conversion of
 *  noisy bases, and the shared ends bring the rejected distance
 *  tests. */
void
BM_ClusterReadsNoisy(benchmark::State &state)
{
    constexpr size_t kPrimerLength = 20;
    Rng rng(11);
    const dna::Sequence primer = randomSeq(rng, kPrimerLength);
    const dna::Sequence site = randomSeq(rng, kPrimerLength);
    sim::Pool pool;
    for (int strand = 0; strand < 40; ++strand)
        pool.add(primer + randomSeq(rng, 110) + site, {}, 1.0);
    std::vector<dna::Sequence> reads;
    for (sim::Read &read :
         sim::sequencePool(pool, 40 * 30, sim::SequencerParams{}))
        reads.push_back(std::move(read.seq));
    for (auto _ : state) {
        cluster::OnlineClusterer clusterer(cluster::ClustererParams{},
                                           kPrimerLength);
        benchmark::DoNotOptimize(clusterer.assignBatch(reads));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(reads.size()));
}
BENCHMARK(BM_ClusterReadsNoisy);

void
BM_BmaDoubleSided(benchmark::State &state)
{
    Rng rng(6);
    dna::Sequence original = randomSeq(rng, 150);
    std::vector<dna::Sequence> reads(10, original);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            consensus::bmaDoubleSided(reads, 150));
}
BENCHMARK(BM_BmaDoubleSided);

/** 75 reads of one random 150-base strand through the sequencer's
 *  default IDS channel (0.3% substitution, 0.07% insertion, 0.07%
 *  deletion): the decoder's operating point, where almost every read
 *  sits 0-2 edits from the draft. */
std::vector<dna::Sequence>
noisyCluster()
{
    Rng rng(6);
    sim::Pool pool;
    pool.add(randomSeq(rng, 150), {}, 1.0);
    std::vector<dna::Sequence> reads;
    for (sim::Read &read :
         sim::sequencePool(pool, 75, sim::SequencerParams{}))
        reads.push_back(std::move(read.seq));
    return reads;
}

/** One refinement pass over the BMA-only draft of noisyCluster(). */
void
BM_RefineDraftNoisy(benchmark::State &state)
{
    const std::vector<dna::Sequence> reads = noisyCluster();
    consensus::BmaParams bma_only;
    bma_only.refine_iterations = 0;
    const dna::Sequence draft =
        consensus::bmaDoubleSided(reads, 150, bma_only);
    const size_t band = consensus::BmaParams{}.refine_band;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            consensus::refineDraft(draft, reads, band));
}
BENCHMARK(BM_RefineDraftNoisy);

/** The whole per-cluster consensus (both BMA passes plus refinement)
 *  of noisyCluster(). */
void
BM_BmaDoubleSidedNoisy(benchmark::State &state)
{
    const std::vector<dna::Sequence> reads = noisyCluster();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            consensus::bmaDoubleSided(reads, 150));
}
BENCHMARK(BM_BmaDoubleSidedNoisy);

void
BM_BmaBatchParallel(benchmark::State &state)
{
    Rng rng(6);
    std::vector<dna::Sequence> reads;
    std::vector<std::vector<size_t>> clusters;
    for (size_t c = 0; c < 64; ++c) {
        dna::Sequence original = randomSeq(rng, 150);
        std::vector<size_t> members;
        for (size_t copy = 0; copy < 10; ++copy) {
            members.push_back(reads.size());
            reads.push_back(original);
        }
        clusters.push_back(std::move(members));
    }
    ThreadPool pool(g_threads);
    for (auto _ : state) {
        benchmark::DoNotOptimize(consensus::bmaDoubleSidedBatch(
            reads, clusters, 150, {}, &pool));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(clusters.size()));
    state.counters["threads"] =
        static_cast<double>(pool.threadCount());
}
BENCHMARK(BM_BmaBatchParallel);

void
BM_PcrReaction(benchmark::State &state)
{
    Rng rng(7);
    dna::Sequence fwd = randomSeq(rng, 20);
    dna::Sequence rev = randomSeq(rng, 20);
    dna::Sequence rev_site = rev.reverseComplement();
    std::vector<sim::DesignedMolecule> order;
    for (int i = 0; i < 512; ++i) {
        sim::DesignedMolecule molecule;
        molecule.seq = fwd + randomSeq(rng, 110) + rev_site;
        molecule.info.block = static_cast<uint64_t>(i);
        order.push_back(std::move(molecule));
    }
    sim::SynthesisParams synthesis;
    sim::Pool pool = sim::synthesize(order, synthesis);
    sim::PcrParams params;
    params.cycles = 15;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim::runPcr(pool, {{fwd, 1.0}}, rev, params));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            512);
}
BENCHMARK(BM_PcrReaction);

/** perfbench's PCR mismatch penalty. */
constexpr double kDevicePenalty = 1.0;

/** A written 256-block device at perfbench's PCR penalty, built on
 *  first use and shared by the device rows. */
core::BlockDevice &
sharedDevice()
{
    static const std::unique_ptr<core::BlockDevice> device = [] {
        core::BlockDeviceParams params;
        params.pcr.mismatch_penalty = kDevicePenalty;
        auto built = std::make_unique<core::BlockDevice>(
            params, dna::Sequence("ACTGAGGTCTGCCTGAAGTC"),
            dna::Sequence("TGAACGCGGTATTGCAGACC"));
        built->writeFile(corpus::generateBytes(
            256 * params.config.block_data_bytes, 7));
        return built;
    }();
    return *device;
}

/** The wetlab half of a frontend read: PCR over the device pool and
 *  sequencing, no decode. A one-block range is exactly a readBlock
 *  round trip (1,200 reads); 16 blocks is a multiplex range read. */
void
BM_DeviceSequenceRange(benchmark::State &state)
{
    core::BlockDevice &device = sharedDevice();
    const auto blocks = static_cast<uint64_t>(state.range(0));
    uint64_t lo = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            device.sequenceRange(lo, lo + blocks - 1));
        lo = (lo + blocks) % device.blockCount();
    }
}
BENCHMARK(BM_DeviceSequenceRange)->Arg(1)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/** The sequencing channel alone: 19,200 reads (a 16-block range
 *  read's budget) from the product of the shared device's 16-block
 *  range PCR, at the default SequencerParams. */
void
BM_SequencePool(benchmark::State &state)
{
    core::BlockDevice &device = sharedDevice();
    const core::BlockDeviceParams defaults;
    sim::PcrParams pcr = defaults.pcr;
    pcr.mismatch_penalty = kDevicePenalty;
    pcr.cycles = defaults.block_access_cycles;
    pcr.stringency = sim::touchdownSchedule(defaults.touchdown_cycles,
                                            defaults.block_access_cycles);
    std::vector<sim::PcrPrimer> primers;
    const std::vector<dna::Sequence> cover =
        device.partition().rangePrimers(0, 15);
    for (const dna::Sequence &seq : cover)
        primers.push_back({seq, 1.0 / static_cast<double>(cover.size())});
    const sim::Pool product = sim::runPcr(
        device.pool(), primers, device.partition().reversePrimer(), pcr);
    sim::SequencerParams params;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::sequencePool(product, 19200, params));
        ++params.seed;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            19200);
}
BENCHMARK(BM_SequencePool)->Unit(benchmark::kMillisecond);

/** A 16-block range read of the shared device end to end through a
 *  4-thread DecodeService: PCR, then a fed request whose decode
 *  filters and clusters each 1,200-read chunk while this thread
 *  sequences the next, then assembly. Wall time, since the decode
 *  runs on the service's threads. */
void
BM_DeviceReadRangeService(benchmark::State &state)
{
    core::BlockDevice &device = sharedDevice();
    core::DecodeServiceParams params;
    params.threads = 4;
    core::DecodeService service(params);
    uint64_t lo = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(device.readRange(lo, lo + 15, &service));
        lo = (lo + 16) % device.blockCount();
    }
}
BENCHMARK(BM_DeviceReadRangeService)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    // Strip a leading `--threads N` (ours) before handing the rest of
    // the command line to google-benchmark.
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            g_threads = static_cast<size_t>(
                std::strtoul(argv[i + 1], nullptr, 10));
            ++i;
            continue;
        }
        argv[kept++] = argv[i];
    }
    argc = kept;
    benchmark::Initialize(&argc, argv);
    // Stamp the run with the active kernel ISA so captures from
    // different instruction sets are never silently compared.
    benchmark::AddCustomContext(
        "isa", simd::isaName(simd::activeIsa()));
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
