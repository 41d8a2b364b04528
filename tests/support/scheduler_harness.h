/**
 * @file
 * Deterministic scheduler harness for DecodeService fairness tests.
 *
 * Fairness under contention is inherently racy to observe from the
 * outside: whether two tenants' queues are both backlogged when a
 * batch dispatches depends on thread timing. This harness removes
 * every source of nondeterminism the scheduler contract allows:
 *
 *  - the service starts with dispatch paused, so a test scripts an
 *    entire contended backlog before a single batch runs;
 *  - token buckets (and latency stamps) read a workload::VirtualClock
 *    the test advances explicitly, so refill decisions are asserted
 *    exactly, not statistically;
 *  - the service's on_dispatch observer records the exact dispatch
 *    order (the dispatcher is single-threaded, so the order is total
 *    and, for a scripted backlog, identical for any pool size).
 *
 * Workload requests carry empty read sets: they decode to an empty
 * outcome instantly and deterministically, which is all a scheduling
 * assertion needs. Byte-identity of real decodes under tenancy is
 * pinned separately (decode_service_test, storage_frontend_test).
 *
 * The clock and dispatch-record types live in src/workload (the
 * simulator uses the same machinery at scale); the aliases below keep
 * existing test spellings working.
 *
 * SchedulerFixture is the shared gtest base: it owns the canonical
 * partition + single-thread decoder once per test and hands out
 * harnesses via harness(params), so suites stop re-wiring
 * clock_us/on_dispatch by hand.
 *
 * The harness is driven from one test thread (submitOne/statusOf are
 * not thread-safe against each other); the scripted schedule IS the
 * point.
 */

#ifndef DNASTORE_TESTS_SUPPORT_SCHEDULER_HARNESS_H
#define DNASTORE_TESTS_SUPPORT_SCHEDULER_HARNESS_H

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/decode_service.h"
#include "workload/simulator.h"
#include "workload/virtual_clock.h"

namespace dnastore::test {

/** Deterministic microsecond clock (now shared with the workload
 *  simulator); kept under the old test:: spelling. */
using VirtualClock = workload::VirtualClock;

/** One dispatched batch, as seen by the service's observer. */
using DispatchRecord = workload::DispatchRecord;

class SchedulerHarness
{
  public:
    /**
     * Wires @p params to the harness (virtual clock, dispatch
     * recorder, start_paused) and constructs the service. Any
     * clock_us/on_dispatch the caller set are overwritten; tenants,
     * threads, depth, policy, and metrics are the test's to choose.
     * Builds its own canonical partition + decoder.
     */
    explicit SchedulerHarness(core::DecodeServiceParams params);

    /** Same wiring, but submissions use @p decoder (owned by the
     *  caller — typically SchedulerFixture — and shared across
     *  harnesses; must outlive this harness). */
    SchedulerHarness(core::DecodeServiceParams params,
                     const core::Decoder &decoder);

    core::DecodeService &service() { return *service_; }
    VirtualClock &clock() { return clock_; }

    /** A live decoder for hand-built batches (mixed-tenant tests). */
    const core::Decoder &decoder() const { return *decoder_ptr_; }

    /** Submit one single-request batch of empty reads for @p tenant;
     *  returns the submission's index for statusOf(). */
    size_t submitOne(core::TenantId tenant);

    /** Release the (start-paused) dispatcher. */
    void resume();

    /** Wait until every submission so far has resolved. */
    void drain();

    /** The submission's final status (waits for its future). */
    core::DecodeStatus statusOf(size_t index);

    /** Dispatch order observed so far. Call after drain() for the
     *  complete scripted sequence. */
    std::vector<DispatchRecord> dispatches() const;

  private:
    void construct(core::DecodeServiceParams params);

    VirtualClock clock_;
    mutable std::mutex mutex_;
    std::vector<DispatchRecord> records_;  // guarded by mutex_

    std::unique_ptr<core::Partition> partition_;
    std::unique_ptr<core::Decoder> decoder_;
    const core::Decoder *decoder_ptr_ = nullptr;
    std::vector<std::future<core::DecodeOutcome>> futures_;
    std::vector<std::optional<core::DecodeOutcome>> outcomes_;

    // Declared last so the service (whose observer writes records_)
    // is destroyed before anything it touches.
    std::unique_ptr<core::DecodeService> service_;
};

/**
 * Shared fixture for scheduler-shaped suites (fair_scheduling_test,
 * workload_sim_test): one canonical partition + decoder per test, and
 * a harness(params) factory that reuses it. Call harness(...) once
 * per test; harness() with no arguments returns the same instance.
 */
class SchedulerFixture : public ::testing::Test
{
  protected:
    SchedulerFixture();
    ~SchedulerFixture() override;

    /** Build a fresh harness over the shared decoder (replacing any
     *  previous one — loops over pool sizes build one per
     *  iteration). */
    SchedulerHarness &harness(core::DecodeServiceParams params);

    /** The current harness (aborts when none was built yet). */
    SchedulerHarness &harness();

    /** The fixture's shared decoder (canonical partition 0) for
     *  hand-built services and batches. */
    const core::Decoder &decoder() const { return *decoder_; }

  private:
    std::unique_ptr<core::Partition> partition_;
    std::unique_ptr<core::Decoder> decoder_;
    std::unique_ptr<SchedulerHarness> harness_;
};

} // namespace dnastore::test

#endif // DNASTORE_TESTS_SUPPORT_SCHEDULER_HARNESS_H
