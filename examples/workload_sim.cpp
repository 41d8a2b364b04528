/**
 * @file
 * Workload-simulator demo: replay a seeded two-class tenant mix
 * against a DecodeService under the virtual clock and print the
 * per-tenant SLO report. Run it twice to see byte-reproducibility —
 * the report fingerprint is identical on every run, on every machine
 * speed, because both token buckets and latency stamps read the
 * simulator's virtual clock.
 */

#include <cstdio>

#include "core/decoder.h"
#include "core/partition.h"
#include "dna/sequence.h"
#include "workload/generator.h"
#include "workload/simulator.h"

using namespace dnastore;

int
main()
{
    // Workload: 2 premium tenants (4x weight, 200 req/s Poisson) and
    // 6 standard tenants (token-bucket limited, bursty on-off
    // arrivals) over a zipfian object space, for half a second.
    workload::WorkloadParams wp;
    wp.seed = 42;
    wp.duration_us = 500'000;
    wp.objects = 128;

    workload::TenantClass premium;
    premium.name = "premium";
    premium.count = 2;
    premium.arrivals.rate_per_sec = 200.0;
    premium.admission.weight = 4;
    wp.classes.push_back(premium);

    workload::TenantClass standard;
    standard.name = "standard";
    standard.count = 6;
    standard.arrivals.kind = workload::ArrivalProcess::Kind::OnOff;
    standard.arrivals.rate_per_sec = 300.0;
    standard.arrivals.mean_on_us = 40'000;
    standard.arrivals.mean_off_us = 80'000;
    standard.admission.rate = 100.0;
    standard.admission.burst = 15.0;
    wp.classes.push_back(standard);

    // The service needs a live decoder even though virtual-mode
    // requests carry empty read sets.
    core::PartitionConfig config;
    core::Partition partition(
        config, dna::Sequence("ACTGAGGTCTGCCTGAAGTC"),
        dna::Sequence("TGAACGCGGTATTGCAGACC"), 13);
    core::Decoder decoder(partition, core::DecoderParams{});

    workload::SimulatorParams sp;
    sp.clock = workload::SimulatorParams::Clock::Virtual;
    sp.decoder = &decoder;
    sp.virtual_service_time_us = 800;  // decode cost per request

    workload::SimResult result = workload::runSimulation(wp, sp);
    std::printf("replayed %zu ops across %zu tenants "
                "(virtual end time %llu us)\n\n",
                result.ops_submitted, result.report.tenants.size(),
                static_cast<unsigned long long>(result.end_clock_us));
    std::printf("%s\n", result.report.formatTable().c_str());
    std::printf("report fingerprint: %llx (stable across runs)\n",
                static_cast<unsigned long long>(
                    result.report_fingerprint));

    workload::SimResult again = workload::runSimulation(wp, sp);
    if (again.report_fingerprint != result.report_fingerprint) {
        std::fprintf(stderr, "determinism break: fingerprints "
                             "differ between identical runs\n");
        return 1;
    }
    std::printf("second run matched: byte-reproducible\n");
    return 0;
}
