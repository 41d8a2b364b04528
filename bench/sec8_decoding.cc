/**
 * @file
 * Reproduces Section 8: decoding the target block from a tiny read
 * budget after precise PCR.
 *
 * The paper recovers block 531 (original + one update, 30 strands)
 * from just 225 sequenced reads, reconstructing the 31 largest
 * clusters; the baseline needs ~50000 reads at 0.34% useful.
 * This bench sweeps the read budget and reports the smallest budget
 * at which the decoder recovers the updated block exactly.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "alice_experiment.h"
#include "core/decoder.h"
#include "sim/sequencer.h"

namespace {

using namespace dnastore;

/** Parse an optional `--threads N` flag (0 = hardware concurrency). */
size_t
parseThreads(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0)
            return static_cast<size_t>(std::strtoul(argv[i + 1],
                                                    nullptr, 10));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    size_t threads = parseThreads(argc, argv);
    std::printf("=== Section 8: decoding block 531 from few reads "
                "===\n\n");
    std::printf("decode threads: %zu%s\n\n", threads,
                threads == 0 ? " (hardware concurrency)" : "");
    bench::AliceExperiment experiment = bench::makeAliceExperiment();
    const uint64_t target = 531;

    // Expected final contents: original paragraph + the update patch.
    core::Bytes original(
        experiment.alice_bytes.begin() + target * 256,
        experiment.alice_bytes.begin() + (target + 1) * 256);
    core::UpdateRecord record = bench::makeUpdateRecord(target);
    core::Bytes expected = record.op.apply(original, 256);

    sim::Pool partition_pool =
        bench::amplifyAlicePartition(experiment, experiment.mixed_pool);
    sim::Pool accessed =
        bench::blockAccessPcr(experiment, partition_pool, {target});

    ThreadPool thread_pool(threads);
    core::Decoder decoder(*experiment.alice, core::DecoderParams{});

    std::printf("%8s  %8s  %9s  %9s  %8s  %7s\n", "reads", "clusters",
                "recovered", "units ok", "correct", "updated");
    size_t first_success = 0;
    for (size_t budget :
         {100u, 150u, 225u, 400u, 800u, 1600u, 3200u}) {
        sim::SequencerParams sequencer;
        sequencer.seed = 7 + budget;
        std::vector<sim::Read> reads =
            sim::sequencePool(accessed, budget, sequencer);

        core::DecodeStats stats;
        auto units = decoder.decodeAll(reads, &stats, thread_pool);

        bool has_target = units.count(target) &&
                          units[target].versions.count(0);
        bool has_update = units.count(target) &&
                          units[target].versions.count(1);
        bool correct = false;
        if (has_target) {
            core::Bytes base = units[target].versions[0];
            base.resize(256);
            core::Bytes final_bytes =
                decoder.applyUpdateChain(base, units[target]);
            correct = final_bytes == expected;
        }
        std::printf("%8zu  %8zu  %9zu  %9zu  %8s  %7s\n", budget,
                    stats.clusters_total, stats.strands_recovered,
                    stats.units_decoded, correct ? "yes" : "no",
                    has_update ? "yes" : "no");
        if (correct && first_success == 0)
            first_success = budget;
    }

    std::printf("\nSmallest budget that decoded the updated block: "
                "%zu reads (paper: 225)\n",
                first_success);

    // Baseline comparison: reads needed without precise PCR.
    double baseline_useful_fraction =
        30.0 / static_cast<double>(experiment.alice_data_strands +
                                   experiment.twist_update_strands +
                                   experiment.idt_update_strands);
    std::printf("Baseline (whole-partition access): %.2f%% useful "
                "reads -> ~%.0f reads for the same 30-strand "
                "coverage (paper: ~50000)\n",
                100.0 * baseline_useful_fraction,
                static_cast<double>(first_success ? first_success : 225) /
                    baseline_useful_fraction);
    return 0;
}
