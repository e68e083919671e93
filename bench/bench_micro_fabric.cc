/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate: the
 * Packet Filter's classification rate, rule-table serialization,
 * event-queue throughput, a fresh Rng's first draw, the fleet
 * router's placement, and chunk-record codec — the host-side costs
 * that bound how fast the simulator itself runs.
 */

#include <benchmark/benchmark.h>

#include "backend/policy.hh"
#include "pcie/memory_map.hh"
#include "sc/control_panels.hh"
#include "serve/router.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

static void
BM_FilterClassify(benchmark::State &state)
{
    backend::RuleTables policy = backend::defaultPolicy(
        wellknown::kTvm, wellknown::kXpu, wellknown::kPcieSc);
    Tlp samples[4] = {
        Tlp::makeMemWrite(wellknown::kTvm,
                          mm::kXpuMmio.base + mm::xpureg::kCmdQueueBase,
                          Bytes(64, 0)),
        Tlp::makeMemRead(wellknown::kXpu, mm::kBounceH2d.base, 4096,
                         0),
        Tlp::makeMemWrite(wellknown::kRogueVm, mm::kXpuMmio.base,
                          Bytes(8, 0)),
        Tlp::makeMessage(wellknown::kXpu, MsgCode::MsiInterrupt),
    };
    size_t i = 0;
    for (auto _ : state) {
        auto action = policy.classify(samples[i++ % 4]);
        benchmark::DoNotOptimize(action);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterClassify);

static void
BM_RuleTableSerialize(benchmark::State &state)
{
    backend::RuleTables policy = backend::defaultPolicy(
        wellknown::kTvm, wellknown::kXpu, wellknown::kPcieSc);
    for (auto _ : state) {
        Bytes blob = policy.serialize();
        benchmark::DoNotOptimize(blob);
    }
}
BENCHMARK(BM_RuleTableSerialize);

static void
BM_RuleTableDeserialize(benchmark::State &state)
{
    Bytes blob = backend::defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                        wellknown::kPcieSc)
                     .serialize();
    for (auto _ : state) {
        auto tables = backend::RuleTables::deserialize(blob);
        benchmark::DoNotOptimize(tables);
    }
}
BENCHMARK(BM_RuleTableDeserialize);

static void
BM_EventQueueThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sum = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(i, [&sum, i] { sum += i; });
        q.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

/** A serve tenant's stream: seeded, then drawn once or twice. */
static void
BM_RngFirstDraw(benchmark::State &state)
{
    std::uint64_t seed = 0x53C41;
    benchmark::DoNotOptimize(seed);
    for (auto _ : state) {
        sim::Rng rng(seed++);
        benchmark::DoNotOptimize(rng.uniform01());
    }
}
BENCHMARK(BM_RngFirstDraw);

/** One placement on a 1000-device fleet: book the last pick's
 * backlog, then pick again, as the serve load generator does. */
static void
BM_FleetRouterPick(benchmark::State &state)
{
    sim::Rng rng(1);
    std::vector<Tick> estimates(1000);
    for (Tick &est : estimates)
        est = rng.uniform(kTicksPerMs, 40 * kTicksPerMs);
    serve::FleetRouter router(std::move(estimates));
    std::uint32_t d = 0;
    for (auto _ : state) {
        router.addBacklog(d, router.serviceEstimate(d));
        d = *router.pick();
        benchmark::DoNotOptimize(d);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetRouterPick);

static void
BM_ChunkRecordCodec(benchmark::State &state)
{
    sc::ChunkRecord rec;
    rec.chunkId = 1;
    rec.addr = mm::kBounceD2h.base;
    rec.length = 256 * kKiB;
    rec.iv.assign(12, 0xab);
    rec.tag.assign(16, 0xcd);
    for (auto _ : state) {
        Bytes wire = rec.serialize();
        auto back = sc::ChunkRecord::deserialize(wire);
        benchmark::DoNotOptimize(back);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChunkRecordCodec);

BENCHMARK_MAIN();
