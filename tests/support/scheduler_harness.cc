#include "support/scheduler_harness.h"

#include <utility>

#include "common/error.h"
#include "support/fixtures.h"

namespace dnastore::test {

namespace {

std::unique_ptr<core::Partition>
canonicalPartition()
{
    const PrimerPair &primers = primerPair(0);
    return std::make_unique<core::Partition>(
        partitionConfig(0), primers.forward, primers.reverse, 13);
}

std::unique_ptr<core::Decoder>
canonicalDecoder(const core::Partition &partition)
{
    return std::make_unique<core::Decoder>(partition,
                                           core::DecoderParams{});
}

} // namespace

SchedulerHarness::SchedulerHarness(core::DecodeServiceParams params)
{
    partition_ = canonicalPartition();
    decoder_ = canonicalDecoder(*partition_);
    decoder_ptr_ = decoder_.get();
    construct(std::move(params));
}

SchedulerHarness::SchedulerHarness(core::DecodeServiceParams params,
                                   const core::Decoder &decoder)
{
    decoder_ptr_ = &decoder;
    construct(std::move(params));
}

void
SchedulerHarness::construct(core::DecodeServiceParams params)
{
    params.clock_us = clock_.source();
    params.on_dispatch = [this](core::TenantId tenant,
                                size_t requests) {
        std::lock_guard<std::mutex> lock(mutex_);
        records_.push_back(DispatchRecord{tenant, requests});
    };
    params.start_paused = true;
    service_ = std::make_unique<core::DecodeService>(std::move(params));
}

size_t
SchedulerHarness::submitOne(core::TenantId tenant)
{
    futures_.push_back(service_->submit(*decoder_ptr_, {}, tenant));
    outcomes_.emplace_back();
    return futures_.size() - 1;
}

void
SchedulerHarness::resume()
{
    service_->resumeDispatch();
}

void
SchedulerHarness::drain()
{
    for (size_t i = 0; i < futures_.size(); ++i)
        (void)statusOf(i);
}

core::DecodeStatus
SchedulerHarness::statusOf(size_t index)
{
    if (!outcomes_.at(index))
        outcomes_[index] = futures_[index].get();
    return outcomes_[index]->status;
}

std::vector<DispatchRecord>
SchedulerHarness::dispatches() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

SchedulerFixture::SchedulerFixture()
{
    partition_ = canonicalPartition();
    decoder_ = canonicalDecoder(*partition_);
}

SchedulerFixture::~SchedulerFixture() = default;

SchedulerHarness &
SchedulerFixture::harness(core::DecodeServiceParams params)
{
    harness_.reset();  // drain/join the old service before reusing
    harness_ = std::make_unique<SchedulerHarness>(std::move(params),
                                                  *decoder_);
    return *harness_;
}

SchedulerHarness &
SchedulerFixture::harness()
{
    fatalIf(harness_ == nullptr,
            "SchedulerFixture: harness() before harness(params)");
    return *harness_;
}

} // namespace dnastore::test
