/**
 * @file
 * StorageFrontend contract tests.
 *
 * Byte-identity: a read routed through the frontend's shared
 * DecodeService must return exactly the bytes of the synchronous
 * BlockDevice/PoolManager path, for every service thread count and
 * for batched as well as per-call submission. Devices derive their
 * sequencer seeds from accumulated cost state, so every comparison
 * drives identically-constructed fresh objects through identical
 * call sequences.
 *
 * Concurrency: two frontends sharing one service from two threads
 * (distinct devices/pools per thread — targets are not thread-safe)
 * still produce the sequential goldens. Admission: a Reject-policy
 * service sheds frontend reads as OverloadedError in the caller's
 * thread, and the frontend's telemetry counts every call.
 */

#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/storage_frontend.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

BlockDeviceParams
deviceParams()
{
    BlockDeviceParams params;
    params.reads_per_block_access = 900;
    params.coverage = 20.0;
    return params;
}

PoolManagerParams
poolParams()
{
    PoolManagerParams params;
    params.reads_per_block_access = 1000;
    return params;
}

constexpr size_t kDeviceBlocks = 6;

std::unique_ptr<BlockDevice>
loadedDevice(uint64_t seed = 123)
{
    return test::makeLoadedDevice(deviceParams(),
                                  test::corpusBlocks(kDeviceBlocks,
                                                     seed));
}

TEST(StorageFrontendTest, RoutedDeviceReadsMatchSynchronous)
{
    // Golden: the synchronous path, one fresh device, one fixed call
    // sequence.
    auto golden_device = loadedDevice();
    auto golden_range = golden_device->readRange(1, 4);
    DecodeStats golden_range_stats = golden_device->lastStats();
    auto golden_all = golden_device->readAll();
    DecodeStats golden_all_stats = golden_device->lastStats();
    auto golden_block = golden_device->readBlock(3);
    auto golden_one = golden_device->readRange(2, 2);
    DecodeStats golden_one_stats = golden_device->lastStats();
    // The routed range reads feed their decode in chunks: readAll's
    // 1,800 reads are not a multiple of the chunk, and a one-block
    // range is exactly one.
    ASSERT_EQ(golden_all_stats.reads_in, 1800u);
    ASSERT_EQ(golden_one_stats.reads_in, BlockDevice::kFeedChunkReads);

    for (size_t threads : {1u, 2u, 8u}) {
        DecodeServiceParams params;
        params.threads = threads;
        DecodeService service(params);
        StorageFrontend frontend(service);

        auto device = loadedDevice();
        EXPECT_EQ(frontend.readBlocks(*device, 1, 4), golden_range)
            << "threads=" << threads;
        EXPECT_EQ(device->lastStats(), golden_range_stats)
            << "threads=" << threads;
        EXPECT_EQ(frontend.readAll(*device), golden_all)
            << "threads=" << threads;
        EXPECT_EQ(device->lastStats(), golden_all_stats)
            << "threads=" << threads;
        EXPECT_EQ(frontend.readBlock(*device, 3), golden_block)
            << "threads=" << threads;
        EXPECT_EQ(frontend.readBlocks(*device, 2, 2), golden_one)
            << "threads=" << threads;
        EXPECT_EQ(device->lastStats(), golden_one_stats)
            << "threads=" << threads;
    }
}

TEST(StorageFrontendTest, RoutedPoolReadsMatchSynchronous)
{
    Bytes file_a = test::corpusBlocks(4, 7);
    Bytes file_b = test::corpusBlocks(5, 8);

    PoolManager golden_pool(poolParams());
    uint32_t a = golden_pool.storeFile(file_a);
    uint32_t b = golden_pool.storeFile(file_b);
    auto golden_a = golden_pool.readFile(a);
    auto golden_b = golden_pool.readFile(b);
    auto golden_block = golden_pool.readBlock(b, 2);
    ASSERT_TRUE(golden_a.has_value());
    EXPECT_EQ(*golden_a, file_a);

    DecodeServiceParams params;
    params.threads = 4;
    DecodeService service(params);
    StorageFrontend frontend(service);

    PoolManager pool(poolParams());
    ASSERT_EQ(pool.storeFile(file_a), a);
    ASSERT_EQ(pool.storeFile(file_b), b);
    EXPECT_EQ(frontend.readFile(pool, a), golden_a);
    EXPECT_EQ(frontend.readFile(pool, b), golden_b);
    EXPECT_EQ(pool.readBlock(b, 2, &service), golden_block);
}

TEST(StorageFrontendTest, BatchedReadsMatchPerCallReads)
{
    // Goldens: per-call synchronous reads, in the same order the
    // batch sequences its targets.
    auto golden_d1 = loadedDevice(123);
    auto golden_d2 = loadedDevice(321);
    auto golden_r1 = golden_d1->readRange(0, 2);
    auto golden_r2 = golden_d2->readRange(3, 5);

    Bytes file_a = test::corpusBlocks(4, 7);
    Bytes file_b = test::corpusBlocks(5, 8);
    PoolManager golden_pool(poolParams());
    uint32_t a = golden_pool.storeFile(file_a);
    uint32_t b = golden_pool.storeFile(file_b);
    auto golden_a = golden_pool.readFile(a);
    auto golden_b = golden_pool.readFile(b);

    DecodeServiceParams params;
    params.threads = 8;
    DecodeService service(params);
    StorageFrontend frontend(service);

    auto d1 = loadedDevice(123);
    auto d2 = loadedDevice(321);
    auto ranges = frontend.readBlocksBatch(
        {{d1.get(), 0, 2}, {d2.get(), 3, 5}});
    ASSERT_EQ(ranges.size(), 2u);
    EXPECT_EQ(ranges[0], golden_r1);
    EXPECT_EQ(ranges[1], golden_r2);

    PoolManager pool(poolParams());
    ASSERT_EQ(pool.storeFile(file_a), a);
    ASSERT_EQ(pool.storeFile(file_b), b);
    auto files = frontend.readFiles(pool, {a, b});
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0], golden_a);
    EXPECT_EQ(files[1], golden_b);
}

TEST(StorageFrontendTest, ConcurrentFrontendsShareOneService)
{
    constexpr size_t kRounds = 2;

    // Sequential goldens: each target object sees the same call
    // sequence the concurrent run will apply to its twin.
    std::vector<std::vector<std::optional<Bytes>>> golden_ranges;
    {
        auto device = loadedDevice();
        for (size_t round = 0; round < kRounds; ++round)
            golden_ranges.push_back(device->readRange(0, 4));
    }
    Bytes file_a = test::corpusBlocks(4, 7);
    std::vector<std::optional<Bytes>> golden_files;
    uint32_t a = 0;
    {
        PoolManager pool(poolParams());
        a = pool.storeFile(file_a);
        for (size_t round = 0; round < kRounds; ++round)
            golden_files.push_back(pool.readFile(a));
    }

    DecodeServiceParams params;
    params.threads = 4;
    DecodeService service(params);
    StorageFrontend frontend_a(service);
    StorageFrontend frontend_b(service);

    auto device = loadedDevice();
    PoolManager pool(poolParams());
    ASSERT_EQ(pool.storeFile(file_a), a);

    std::vector<std::vector<std::optional<Bytes>>> ranges(kRounds);
    std::vector<std::optional<Bytes>> files(kRounds);
    std::thread device_reader([&] {
        for (size_t round = 0; round < kRounds; ++round)
            ranges[round] = frontend_a.readBlocks(*device, 0, 4);
    });
    std::thread file_reader([&] {
        for (size_t round = 0; round < kRounds; ++round)
            files[round] = frontend_b.readFile(pool, a);
    });
    device_reader.join();
    file_reader.join();

    for (size_t round = 0; round < kRounds; ++round) {
        EXPECT_EQ(ranges[round], golden_ranges[round])
            << "round " << round;
        EXPECT_EQ(files[round], golden_files[round])
            << "round " << round;
    }
}

TEST(StorageFrontendTest, RejectOverflowSurfacesAsOverloadedError)
{
    // A long-running decode to hold the only queue slot: a large
    // device read set keeps the service busy for far longer than the
    // frontend needs to sequence and submit.
    BlockDeviceParams big = deviceParams();
    big.coverage = 30.0;
    auto busy_device = test::makeLoadedDevice(
        big, test::corpusBlocks(12, 99));
    std::vector<sim::Read> busy_reads = busy_device->sequenceAll();

    telemetry::MetricsRegistry registry;
    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 1;
    params.overflow = OverflowPolicy::Reject;
    params.metrics = &registry;
    DecodeService service(params);
    StorageFrontendParams frontend_params;
    frontend_params.metrics = &registry;
    StorageFrontend frontend(service, frontend_params);

    std::future<DecodeOutcome> occupier =
        service.submit(busy_device->decoder(), busy_reads);

    auto device = loadedDevice();
    EXPECT_THROW(frontend.readBlocks(*device, 0, 2),
                 OverloadedError);

    // Once the slot frees, the same frontend read goes through and
    // matches a synchronous golden driven through the same sequence
    // (the shed attempt consumed one wetlab round trip).
    EXPECT_EQ(occupier.get().status, DecodeStatus::Ok);
    auto golden_device = loadedDevice();
    golden_device->sequenceRange(0, 2);  // mirror the shed attempt
    auto golden = golden_device->readRange(0, 2);
    EXPECT_EQ(frontend.readBlocks(*device, 0, 2), golden);

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("frontend.overloaded"), 1u);
    EXPECT_EQ(snap.counters.at("frontend.range_reads"), 1u);
    EXPECT_EQ(snap.counters.at("decode_service.requests_rejected"),
              1u);
}

TEST(StorageFrontendTest, TenantBoundFrontendsContendByteIdentically)
{
    // Two frontends bound to different tenants (3:1 weights) hammer
    // one bounded service from concurrent threads. Tenancy schedules
    // the decodes; it must never change a single byte, so every read
    // is pinned against an identically-driven synchronous twin, and
    // the per-tenant admission counters are pinned exactly.
    constexpr size_t kRounds = 2;

    std::vector<std::vector<std::optional<Bytes>>> golden_ranges;
    {
        auto device = loadedDevice();
        for (size_t round = 0; round < kRounds; ++round)
            golden_ranges.push_back(device->readRange(0, 4));
    }
    Bytes file_a = test::corpusBlocks(4, 7);
    std::vector<std::optional<Bytes>> golden_files;
    uint32_t a = 0;
    {
        PoolManager pool(poolParams());
        a = pool.storeFile(file_a);
        for (size_t round = 0; round < kRounds; ++round)
            golden_files.push_back(pool.readFile(a));
    }

    telemetry::MetricsRegistry registry;
    DecodeServiceParams params;
    params.threads = 4;
    params.max_queue_depth = 8;
    params.metrics = &registry;
    params.tenants[1].weight = 3;
    params.tenants[2].weight = 1;
    DecodeService service(params);
    StorageFrontendParams heavy_params;
    heavy_params.metrics = &registry;
    heavy_params.tenant = 1;
    StorageFrontend heavy(service, heavy_params);
    StorageFrontendParams light_params;
    light_params.metrics = &registry;
    light_params.tenant = 2;
    StorageFrontend light(service, light_params);
    EXPECT_EQ(heavy.tenant(), 1u);
    EXPECT_EQ(light.tenant(), 2u);

    auto device = loadedDevice();
    PoolManager pool(poolParams());
    ASSERT_EQ(pool.storeFile(file_a), a);

    std::vector<std::vector<std::optional<Bytes>>> ranges(kRounds);
    std::vector<std::optional<Bytes>> files(kRounds);
    std::thread device_reader([&] {
        for (size_t round = 0; round < kRounds; ++round)
            ranges[round] = heavy.readBlocks(*device, 0, 4);
    });
    std::thread file_reader([&] {
        for (size_t round = 0; round < kRounds; ++round)
            files[round] = light.readFile(pool, a);
    });
    device_reader.join();
    file_reader.join();

    for (size_t round = 0; round < kRounds; ++round) {
        EXPECT_EQ(ranges[round], golden_ranges[round])
            << "round " << round;
        EXPECT_EQ(files[round], golden_files[round])
            << "round " << round;
    }

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.1.requests_admitted"),
        kRounds);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.2.requests_admitted"),
        kRounds);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.1.requests_throttled"),
        0u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.2.requests_throttled"),
        0u);
}

TEST(StorageFrontendTest, ThrottledTenantCountersArePinned)
{
    // The light tenant carries a two-request budget (burst 2, no
    // refill) on a bounded service; its first two reads succeed and
    // stay byte-identical, the third is shed by the bucket as
    // ThrottledError, and the throttled/rejected counters split
    // cleanly between the tenants. The heavy tenant is untouched.
    telemetry::MetricsRegistry registry;
    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 4;
    params.metrics = &registry;
    params.tenants[1].weight = 3;
    params.tenants[2].burst = 2.0;  // two requests, ever
    DecodeService service(params);
    StorageFrontendParams heavy_params;
    heavy_params.metrics = &registry;
    heavy_params.tenant = 1;
    StorageFrontend heavy(service, heavy_params);
    StorageFrontendParams light_params;
    light_params.metrics = &registry;
    light_params.tenant = 2;
    StorageFrontend light(service, light_params);

    // Synchronous twin driven through the exact same call sequence
    // (the throttled attempt still consumed a wetlab round trip).
    auto golden_device = loadedDevice();
    auto golden_first = golden_device->readRange(0, 2);
    auto golden_second = golden_device->readRange(1, 3);
    golden_device->sequenceRange(2, 4);  // mirror the shed attempt

    auto device = loadedDevice();
    EXPECT_EQ(light.readBlocks(*device, 0, 2), golden_first);
    EXPECT_EQ(light.readBlocks(*device, 1, 3), golden_second);
    EXPECT_THROW(light.readBlocks(*device, 2, 4), ThrottledError);
    // ThrottledError derives from OverloadedError, so existing
    // saturation back-off handlers catch it too.
    EXPECT_THROW(
        {
            try {
                light.readBlocks(*device, 2, 4);
            } catch (const OverloadedError &) {
                throw;
            }
        },
        OverloadedError);

    // The heavy tenant still reads, byte-identical to its own twin.
    auto heavy_golden = loadedDevice(321);
    auto golden_range = heavy_golden->readRange(0, 2);
    auto heavy_device = loadedDevice(321);
    EXPECT_EQ(heavy.readBlocks(*heavy_device, 0, 2), golden_range);

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.2.requests_admitted"),
        2u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.2.requests_throttled"),
        2u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.2.requests_rejected"),
        0u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.1.requests_admitted"),
        1u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.1.requests_throttled"),
        0u);
    EXPECT_EQ(snap.counters.at("decode_service.requests_throttled"),
              2u);
    EXPECT_EQ(snap.counters.at("frontend.throttled"), 2u);
    EXPECT_EQ(snap.counters.at("frontend.overloaded"), 0u);
}

TEST(StorageFrontendTest, FrontendMetricsCountReads)
{
    telemetry::MetricsRegistry registry;
    DecodeServiceParams service_params;
    service_params.threads = 2;
    service_params.metrics = &registry;
    DecodeService service(service_params);
    StorageFrontendParams frontend_params;
    frontend_params.metrics = &registry;
    StorageFrontend frontend(service, frontend_params);

    auto device = loadedDevice();
    auto blocks = frontend.readBlocks(*device, 0, 3);
    size_t returned = 0;
    for (const auto &block : blocks)
        returned += block.has_value() ? 1 : 0;

    Bytes file_a = test::corpusBlocks(4, 7);
    PoolManager pool(poolParams());
    uint32_t a = pool.storeFile(file_a);
    frontend.readFile(pool, a);
    frontend.readFiles(pool, {a});

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("frontend.range_reads"), 1u);
    EXPECT_EQ(snap.counters.at("frontend.file_reads"), 1u);
    EXPECT_EQ(snap.counters.at("frontend.batch_reads"), 1u);
    EXPECT_EQ(snap.counters.at("frontend.blocks_returned"),
              returned);
    EXPECT_EQ(snap.counters.at("frontend.blocks_missing"),
              4u - returned);
    EXPECT_EQ(
        snap.histograms.at("frontend.read_latency_us").count, 3u);
    // The same registry carries the service-side view: 3 frontend
    // calls = 3 decode requests admitted.
    EXPECT_EQ(snap.counters.at("decode_service.requests_submitted"),
              3u);
    EXPECT_EQ(snap.counters.at("decode_service.requests_decoded"),
              3u);
}

} // namespace
} // namespace dnastore::core
