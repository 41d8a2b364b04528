#include "core/storage_frontend.h"

#include <chrono>
#include <utility>

#include "common/error.h"

namespace dnastore::core {

StorageFrontend::StorageFrontend(DecodeService &service,
                                 StorageFrontendParams params)
    : service_(service), tenant_(params.tenant),
      tracer_(params.tracer)
{
    if (params.metrics) {
        telemetry::MetricsRegistry &registry = *params.metrics;
        block_reads_ = &registry.counter("frontend.block_reads");
        range_reads_ = &registry.counter("frontend.range_reads");
        full_reads_ = &registry.counter("frontend.full_reads");
        file_reads_ = &registry.counter("frontend.file_reads");
        batch_reads_ = &registry.counter("frontend.batch_reads");
        blocks_returned_ =
            &registry.counter("frontend.blocks_returned");
        blocks_missing_ = &registry.counter("frontend.blocks_missing");
        overloaded_ = &registry.counter("frontend.overloaded");
        throttled_ = &registry.counter("frontend.throttled");
        read_latency_us_ =
            &registry.histogram("frontend.read_latency_us");
    }
}

template <typename Fn>
auto
StorageFrontend::instrumented(telemetry::Counter *calls,
                              std::string_view span_name, Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point start = Clock::now();
    telemetry::SpanHandle root;
    if (tracer_)
        root = tracer_->startTrace(span_name, tenant_);
    root.attrU64("tenant", tenant_);
    telemetry::TraceContext ctx = root.context();
    try {
        auto result = fn(ctx);
        if (calls)
            calls->increment();
        if (read_latency_us_) {
            auto us = std::chrono::duration_cast<
                std::chrono::microseconds>(Clock::now() - start);
            read_latency_us_->observe(
                us.count() < 0 ? 0
                               : static_cast<uint64_t>(us.count()),
                ctx.traceId());
        }
        if (root.active()) {
            root.attr("outcome", "ok");
            root.end();
        }
        return result;
    } catch (const ThrottledError &) {
        if (throttled_)
            throttled_->increment();
        if (root.active()) {
            root.attr("outcome", "throttled");
            ctx.keep();
            root.end();
        }
        throw;
    } catch (const OverloadedError &) {
        if (overloaded_)
            overloaded_->increment();
        if (root.active()) {
            root.attr("outcome", "overloaded");
            ctx.keep();
            root.end();
        }
        throw;
    } catch (...) {
        if (root.active()) {
            root.attr("outcome", "error");
            ctx.keep();
            root.end();
        }
        throw;
    }
}

void
StorageFrontend::recordBlocks(
    const std::vector<std::optional<Bytes>> &blocks)
{
    if (!blocks_returned_)
        return;
    size_t returned = 0;
    for (const std::optional<Bytes> &block : blocks)
        returned += block.has_value() ? 1 : 0;
    blocks_returned_->increment(returned);
    blocks_missing_->increment(blocks.size() - returned);
}

std::optional<Bytes>
StorageFrontend::readBlock(BlockDevice &device, uint64_t block)
{
    return instrumented(block_reads_, "frontend.read_block",
                        [&](const telemetry::TraceContext &ctx) {
        std::optional<Bytes> content =
            device.readBlock(block, &service_, tenant_, ctx);
        if (blocks_returned_) {
            (content ? blocks_returned_ : blocks_missing_)
                ->increment();
        }
        return content;
    });
}

std::vector<std::optional<Bytes>>
StorageFrontend::readBlocks(BlockDevice &device, uint64_t lo,
                            uint64_t hi)
{
    return instrumented(range_reads_, "frontend.read_blocks",
                        [&](const telemetry::TraceContext &ctx) {
        std::vector<std::optional<Bytes>> blocks =
            device.readRange(lo, hi, &service_, tenant_, ctx);
        recordBlocks(blocks);
        return blocks;
    });
}

std::vector<std::optional<Bytes>>
StorageFrontend::readAll(BlockDevice &device)
{
    return instrumented(full_reads_, "frontend.read_all",
                        [&](const telemetry::TraceContext &ctx) {
        std::vector<std::optional<Bytes>> blocks =
            device.readAll(&service_, tenant_, ctx);
        recordBlocks(blocks);
        return blocks;
    });
}

std::optional<Bytes>
StorageFrontend::readFile(PoolManager &pool, uint32_t file_id)
{
    return instrumented(file_reads_, "frontend.read_file",
                        [&](const telemetry::TraceContext &ctx) {
        return pool.readFile(file_id, &service_, tenant_, ctx);
    });
}

std::vector<std::vector<std::optional<Bytes>>>
StorageFrontend::readBlocksBatch(const std::vector<RangeRead> &ranges)
{
    return instrumented(batch_reads_, "frontend.read_blocks_batch",
                        [&](const telemetry::TraceContext &ctx) {
        // Wetlab stage stays sequential: each device owns its cost
        // and RNG state, and the sequencing order is part of the
        // byte-identical contract with per-call readBlocks.
        std::vector<DecodeRequest> batch(ranges.size());
        for (size_t i = 0; i < ranges.size(); ++i) {
            fatalIf(ranges[i].device == nullptr,
                    "readBlocksBatch: null device");
            batch[i].decoder = &ranges[i].device->decoder();
            batch[i].reads = ranges[i].device->sequenceRange(
                ranges[i].lo, ranges[i].hi);
            batch[i].tenant = tenant_;
            batch[i].trace = ctx;
        }

        // One submission: the ranges' decodes shard across the
        // service pool and run concurrently.
        std::vector<std::future<DecodeOutcome>> futures =
            service_.submitBatch(std::move(batch));

        std::vector<std::vector<std::optional<Bytes>>> results;
        results.reserve(ranges.size());
        for (size_t i = 0; i < ranges.size(); ++i) {
            results.push_back(ranges[i].device->assembleRange(
                ranges[i].lo, ranges[i].hi,
                routedUnits(futures[i].get(), nullptr, "readBlocksBatch"),
                &service_, tenant_, ctx));
            recordBlocks(results.back());
        }
        return results;
    });
}

std::vector<std::optional<Bytes>>
StorageFrontend::readFiles(PoolManager &pool,
                           const std::vector<uint32_t> &file_ids)
{
    return instrumented(batch_reads_, "frontend.read_files",
                        [&](const telemetry::TraceContext &ctx) {
        std::vector<DecodeRequest> batch(file_ids.size());
        for (size_t i = 0; i < file_ids.size(); ++i) {
            batch[i].decoder = &pool.decoderOf(file_ids[i]);
            batch[i].reads = pool.sequenceFile(file_ids[i]);
            batch[i].tenant = tenant_;
            batch[i].trace = ctx;
        }

        std::vector<std::future<DecodeOutcome>> futures =
            service_.submitBatch(std::move(batch));

        std::vector<std::optional<Bytes>> files;
        files.reserve(file_ids.size());
        for (size_t i = 0; i < file_ids.size(); ++i)
            files.push_back(pool.assembleFile(
                file_ids[i],
                routedUnits(futures[i].get(), nullptr, "readFiles")));
        return files;
    });
}

} // namespace dnastore::core
