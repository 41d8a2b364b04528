/**
 * @file
 * Trace-driven workload SLO benchmark.
 *
 * Part 1 replays a seeded three-class workload (heavy / standard /
 * bursty tenants, zipfian objects, Poisson + on-off arrivals) against
 * a DecodeService under the virtual clock — twice — and records the
 * per-class SLO aggregates (offered/admitted/goodput, p50/p99/p999
 * queue latency) plus a `deterministic` flag: both runs must produce
 * identical report fingerprints and dispatch sequences. A determinism
 * break here is treated like a correctness failure, the same way
 * decode_scaling treats cross-thread divergence.
 *
 * Part 2 scripts a saturated two-tenant backlog (WDRR weights 3:1,
 * every op at t = 0) plus a token-bucket-throttled third tenant, and
 * records the exact dispatch ratio and goodputs. Under the virtual
 * clock these are integers-in, integers-out: the ratio must be
 * exactly weights-shaped and the throttled goodput exactly
 * burst/offered.
 *
 * Output: BENCH_workload.json, gated by compare_bench.py's
 * --workload-baseline/--workload-fresh arm (p99 ratio + goodput
 * deltas + saturation ratio). The virtual clock makes every recorded
 * number independent of machine speed; only libm rounding in the
 * arrival-time exponentials can differ across toolchains, which the
 * gate's tolerances absorb.
 *
 * With --trace-out PATH the replay also samples every request into a
 * TraceCollector driven by the simulation clock and writes the kept
 * traces as Chrome trace-event JSON (open in Perfetto or
 * chrome://tracing); the SLO tables then carry each tenant's slowest
 * sampled trace. Tracing rides the same virtual clock, so the
 * deterministic flag is unaffected.
 *
 * Usage: workload_slo [--out PATH] [--duration-us N] [--seed N]
 *                     [--trace-out PATH]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/decoder.h"
#include "core/partition.h"
#include "dna/sequence.h"
#include "workload/generator.h"
#include "workload/simulator.h"
#include "workload/slo_report.h"

namespace {

using namespace dnastore;

/** The benchmark's tenant mix: 4 heavy, 12 standard, 6 bursty. */
workload::WorkloadParams
benchWorkload(uint64_t seed, uint64_t duration_us)
{
    workload::WorkloadParams wp;
    wp.seed = seed;
    wp.duration_us = duration_us;
    wp.objects = 512;
    wp.zipf_s = 0.99;

    workload::TenantClass heavy;
    heavy.name = "heavy";
    heavy.count = 4;
    heavy.arrivals.rate_per_sec = 300.0;
    heavy.mix = {0.9, 0.08, 0.02};
    heavy.admission.weight = 4;
    wp.classes.push_back(heavy);

    workload::TenantClass standard;
    standard.name = "standard";
    standard.count = 12;
    standard.arrivals.rate_per_sec = 100.0;
    standard.mix = {0.8, 0.15, 0.05};
    wp.classes.push_back(standard);

    workload::TenantClass bursty;
    bursty.name = "bursty";
    bursty.count = 6;
    bursty.arrivals.kind = workload::ArrivalProcess::Kind::OnOff;
    bursty.arrivals.rate_per_sec = 400.0;
    bursty.arrivals.mean_on_us = 30'000;
    bursty.arrivals.mean_off_us = 90'000;
    bursty.admission.rate = 120.0;
    bursty.admission.burst = 20.0;
    wp.classes.push_back(bursty);
    return wp;
}

void
printOptionalUs(std::FILE *out, const char *key,
                const std::optional<uint64_t> &value, const char *tail)
{
    if (value)
        std::fprintf(out, "\"%s\": %llu%s", key,
                     static_cast<unsigned long long>(*value), tail);
    else
        std::fprintf(out, "\"%s\": null%s", key, tail);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_workload.json";
    std::string trace_out;
    uint64_t duration_us = 1'000'000;
    uint64_t seed = 20260808;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out_path = argv[i + 1];
        else if (std::strcmp(argv[i], "--duration-us") == 0)
            duration_us = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--trace-out") == 0)
            trace_out = argv[i + 1];
    }

    // A minimal real decoder: the virtual-mode simulator submits
    // empty read sets, so geometry is irrelevant, but DecodeService
    // requires a live Decoder per request.
    core::PartitionConfig config;
    core::Partition partition(
        config, dna::Sequence("ACTGAGGTCTGCCTGAAGTC"),
        dna::Sequence("TGAACGCGGTATTGCAGACC"), 13);
    core::Decoder decoder(partition, core::DecoderParams{});

    workload::SimulatorParams sp;
    sp.clock = workload::SimulatorParams::Clock::Virtual;
    sp.decoder = &decoder;
    sp.virtual_service_time_us = 400;
    sp.record_dispatches = true;
    if (!trace_out.empty())
        sp.trace_sample_every = 1;

    // --- Part 1: seeded mixed workload, run twice ---------------------
    std::printf("=== workload SLO (virtual clock) ===\n\n");
    const workload::WorkloadParams wp = benchWorkload(seed, duration_us);
    workload::SimResult first = workload::runSimulation(wp, sp);
    workload::SimResult second = workload::runSimulation(wp, sp);
    const bool deterministic =
        first.trace_fingerprint == second.trace_fingerprint &&
        first.report_fingerprint == second.report_fingerprint &&
        first.dispatches == second.dispatches;
    std::printf("ops=%zu tenants=%zu deterministic=%s\n",
                first.ops_submitted, first.report.tenants.size(),
                deterministic ? "yes" : "NO");
    if (!deterministic)
        std::fprintf(stderr, "FAIL: virtual replay diverged between "
                             "identical runs\n");
    std::printf("%s\n", first.report.formatTable().c_str());

    struct ClassRow
    {
        std::string name;
        size_t tenants;
        workload::TenantSlo slo;
    };
    std::vector<ClassRow> classes;
    for (size_t c = 0; c < wp.classes.size(); ++c) {
        const auto ids = workload::classTenantIds(wp, c);
        classes.push_back(
            {wp.classes[c].name, ids.size(),
             workload::aggregateSlo(first.metrics, ids,
                                    static_cast<core::TenantId>(c))});
    }

    // --- Part 2: scripted saturation, exact WDRR ratio ----------------
    std::printf("=== scripted saturation (weights 3:1) ===\n\n");
    workload::Trace sat;
    for (uint64_t i = 0; i < 300; ++i)
        sat.push_back({0, 1, 0, workload::OpType::Read, i});
    for (uint64_t i = 0; i < 100; ++i)
        sat.push_back({0, 2, 0, workload::OpType::Read, i});
    for (uint64_t i = 0; i < 100; ++i)
        sat.push_back({0, 3, 0, workload::OpType::Read, i});
    std::map<core::TenantId, core::TenantParams> admission;
    admission[1].weight = 3;
    admission[2].weight = 1;
    admission[3].weight = 1;
    admission[3].burst = 25.0;  // rate 0: admits exactly 25 of 100
    workload::SimResult sat_result =
        workload::replayTrace(sat, admission, {1, 2, 3}, sp);

    const workload::TenantSlo &sat_heavy = sat_result.report.tenants[0];
    const workload::TenantSlo &sat_light = sat_result.report.tenants[1];
    const workload::TenantSlo &sat_throttled =
        sat_result.report.tenants[2];
    const double dispatch_ratio =
        sat_light.dispatched == 0
            ? 0.0
            : static_cast<double>(sat_heavy.dispatched) /
                  static_cast<double>(sat_light.dispatched);
    std::printf("dispatch ratio %.3f  goodputs %.3f / %.3f / %.3f\n",
                dispatch_ratio, sat_heavy.goodput(),
                sat_light.goodput(), sat_throttled.goodput());
    std::printf("%s\n", sat_result.report.formatTable().c_str());

    // --- Chrome trace export ------------------------------------------
    if (!trace_out.empty()) {
        std::FILE *trace_file = std::fopen(trace_out.c_str(), "w");
        if (!trace_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         trace_out.c_str());
            return 1;
        }
        const std::string chrome =
            first.traces ? first.traces->exportChromeJson() : "";
        std::fwrite(chrome.data(), 1, chrome.size(), trace_file);
        std::fclose(trace_file);
        std::printf("wrote %s (%zu traces)\n", trace_out.c_str(),
                    first.traces ? first.traces->traceCount()
                                 : size_t{0});
    }

    // --- JSON ---------------------------------------------------------
    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"workload_slo\",\n");
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"tracing_enabled\": %s,\n",
                 trace_out.empty() ? "false" : "true");
    std::fprintf(out, "  \"virtual\": {\n");
    std::fprintf(out, "    \"seed\": %llu,\n",
                 static_cast<unsigned long long>(wp.seed));
    std::fprintf(out, "    \"duration_us\": %llu,\n",
                 static_cast<unsigned long long>(wp.duration_us));
    std::fprintf(out, "    \"service_time_us\": %llu,\n",
                 static_cast<unsigned long long>(
                     sp.virtual_service_time_us));
    std::fprintf(out, "    \"ops\": %zu,\n", first.ops_submitted);
    std::fprintf(out, "    \"deterministic\": %s,\n",
                 deterministic ? "true" : "false");
    std::fprintf(out, "    \"trace_fingerprint\": \"%llx\",\n",
                 static_cast<unsigned long long>(
                     first.trace_fingerprint));
    std::fprintf(out, "    \"report_fingerprint\": \"%llx\",\n",
                 static_cast<unsigned long long>(
                     first.report_fingerprint));
    std::fprintf(out, "    \"classes\": [\n");
    for (size_t c = 0; c < classes.size(); ++c) {
        const ClassRow &row = classes[c];
        std::fprintf(out,
                     "      {\"name\": \"%s\", \"tenants\": %zu, "
                     "\"offered\": %llu, \"admitted\": %llu, "
                     "\"throttled\": %llu, \"rejected\": %llu, "
                     "\"goodput\": %.4f, ",
                     row.name.c_str(), row.tenants,
                     static_cast<unsigned long long>(row.slo.offered),
                     static_cast<unsigned long long>(row.slo.admitted),
                     static_cast<unsigned long long>(row.slo.throttled),
                     static_cast<unsigned long long>(row.slo.rejected),
                     row.slo.goodput());
        printOptionalUs(out, "p50_us", row.slo.p50_us, ", ");
        printOptionalUs(out, "p99_us", row.slo.p99_us, ", ");
        printOptionalUs(out, "p999_us", row.slo.p999_us,
                        c + 1 < classes.size() ? "},\n" : "}\n");
    }
    std::fprintf(out, "    ]\n");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"saturation\": {\n");
    std::fprintf(out, "    \"weights\": [3, 1],\n");
    std::fprintf(out, "    \"dispatch_ratio\": %.4f,\n",
                 dispatch_ratio);
    std::fprintf(out, "    \"heavy_goodput\": %.4f,\n",
                 sat_heavy.goodput());
    std::fprintf(out, "    \"light_goodput\": %.4f,\n",
                 sat_light.goodput());
    std::fprintf(out, "    \"throttled_goodput\": %.4f,\n",
                 sat_throttled.goodput());
    std::fprintf(out, "    ");
    printOptionalUs(out, "heavy_p99_us", sat_heavy.p99_us, "\n");
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
    return deterministic ? 0 : 1;
}
