/**
 * @file
 * Parallel-data-plane sweep on the Figure-8 Llama-2 transfer mix
 * (one 24 MiB weight upload, 16 decode rounds of 1 MiB up + 1 MiB
 * down, one 4 MiB logit download) at the 4 KiB chunk granularity
 * where per-chunk CPU cost dominates. Two phases per thread width:
 *
 *  1. Sequential: each transfer runs to completion before the next
 *     is issued, exactly one interleaving at every width — the
 *     digest over all delivered plaintexts and bounce ciphertexts
 *     (tags included via the ciphertext windows) must be
 *     bit-identical across widths, proving the parallel seal/open
 *     is exact.
 *  2. Pipelined: the same mix issued as a depth-K in-flight stream
 *     (per-step VRAM regions and per-step seeded payloads), so seal
 *     CPU, wire DMA and open CPU of different steps overlap the way
 *     the submission/completion rings allow. Event interleaving is
 *     width-dependent here, so only delivered plaintexts (folded in
 *     fixed step order) are digested; the throughput gate lives in
 *     this phase.
 *
 * Results go to stdout and BENCH_pipeline.json (working directory).
 * `--quick` sweeps widths {1, 8} only (CI perf smoke).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hh"
#include "ccai/platform.hh"
#include "crypto/worker_pool.hh"
#include "sc/packet_filter.hh"
#include "sim/rng.hh"

using namespace ccai;
namespace mm = ccai::pcie::memmap;

namespace
{

/** One transfer of the mix: @p h2dBytes moved up, then @p d2hBytes
 * echoed down from the same device region. */
struct Step
{
    std::uint64_t h2dBytes;
    std::uint64_t d2hBytes;
};

std::vector<Step>
transferMix()
{
    std::vector<Step> mix;
    mix.push_back({24 * kMiB, 0});            // weight upload
    for (int round = 0; round < 16; ++round)  // decode rounds
        mix.push_back({1 * kMiB, 1 * kMiB});
    mix.push_back({0, 4 * kMiB});             // logit download
    return mix;
}

/**
 * Same byte profile as transferMix(), but the 24 MiB weight upload
 * is issued as shards the way serving stacks stream model weights.
 * A single 24 MiB step would serialize its whole seal before the
 * first DMA byte moves, idling the device for the pipeline's
 * opening milliseconds; shards let the first shard's DMA overlap
 * the later shards' seals. One 6 MiB shard stays large enough to
 * donate its region to the 4 MiB logit download.
 */
std::vector<Step>
pipelinedMix()
{
    std::vector<Step> mix;
    mix.push_back({3 * kMiB, 0});             // weight shards
    mix.push_back({3 * kMiB, 0});
    mix.push_back({6 * kMiB, 0});
    for (int shard = 0; shard < 4; ++shard)
        mix.push_back({3 * kMiB, 0});
    for (int round = 0; round < 16; ++round)  // decode rounds
        mix.push_back({1 * kMiB, 1 * kMiB});
    mix.push_back({0, 4 * kMiB});             // logit download
    return mix;
}

/** Transfers the pipelined phase keeps in flight. */
constexpr int kPipelineDepth = 12;
/** Per-step device regions keep overlapping steps disjoint. */
constexpr std::uint64_t kVramStride = 32 * kMiB;

/** FNV-1a over a byte span, chained through @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const Bytes &data)
{
    for (std::uint8_t b : data) {
        h ^= b;
        h *= 0x100000001B3ull;
    }
    return h;
}

PlatformConfig
benchConfig(int threads)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.adaptorConfig.cryptoThreads = threads;
    cfg.scConfig.dataEngineThreads = threads;
    // Fine-grained chunks put the per-chunk CPU cost in charge (the
    // regime the worker pool targets); the large staging slot keeps
    // the D2H drain stall out of the measurement.
    cfg.adaptorConfig.chunkBytes = 4 * kKiB;
    cfg.adaptorConfig.d2hSlotBytes = 16 * kMiB;
    return cfg;
}

struct SweepResult
{
    int threads = 0;
    // Sequential phase.
    double simSeconds = 0;
    double mibPerSec = 0;
    std::uint64_t digest = 0;
    bool dataOk = true;
    double tlbHitRate = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t a1Blocked = 0;
    // Pipelined phase.
    double pipeSimSeconds = 0;
    double pipeMibPerSec = 0;
    std::uint64_t pipeDigest = 0;
    bool pipeOk = true;
    double wallSeconds = 0;
    /** Adaptor stage histograms (sim ticks), copied out before the
     * per-width Platform is torn down. */
    obs::Histogram h2dPrepareTicks;
    obs::Histogram d2hCollectTicks;
    /** Completion-ring occupancy at each batched record reap. */
    obs::Histogram metaRingOccupancy;
    /** Worker-pool queue wait (wall-clock data, pipelined phase
     * only — resetStats() runs between phases). */
    obs::Histogram queueWaitNs;
};

/**
 * Phase 1: strictly sequential mix. One interleaving at every
 * width, so ciphertext windows (which include the GCM tags'
 * downstream effect via the records the SC verified) and delivered
 * plaintexts must digest identically whatever the thread count.
 */
void
runSequential(SweepResult &r, std::uint64_t &totalBytes)
{
    Platform p(benchConfig(r.threads));
    TrustReport trust = p.establishTrust();
    if (!trust.ok()) {
        std::fprintf(stderr, "trust establishment failed: %s\n",
                     trust.failure.c_str());
        std::exit(1);
    }

    totalBytes = 0;
    // Identical payload stream for every thread count: the digest
    // below may differ between widths only if parallel crypto is not
    // bit-exact.
    sim::Rng rng(0xF18A);
    // Busy sim time is accumulated per transfer, ending at each
    // completion callback: after a transfer finishes, the event queue
    // still drains harmless armed-timer no-ops (ARQ ack timers, read
    // timeouts) that would otherwise pad every transfer by a constant
    // ~0.5 ms of idle simulated time.
    Tick busy = 0;

    auto timedH2d = [&](const Bytes &up) {
        Tick t0 = p.system().now();
        Tick t1 = t0;
        p.runtime().memcpyH2D(mm::kXpuVram.base, up, up.size(),
                              [&] { t1 = p.system().now(); });
        p.run();
        busy += t1 - t0;
        totalBytes += up.size();
    };
    auto timedD2h = [&](std::uint64_t bytes) {
        Tick t0 = p.system().now();
        Tick t1 = t0;
        Bytes down;
        p.runtime().memcpyD2H(mm::kXpuVram.base, bytes, false,
                              [&](Bytes d) {
                                  down = std::move(d);
                                  t1 = p.system().now();
                              });
        p.run();
        busy += t1 - t0;
        totalBytes += bytes;
        return down;
    };

    for (const Step &step : transferMix()) {
        if (step.h2dBytes) {
            Bytes up = rng.bytes(step.h2dBytes);
            timedH2d(up);
            // Adaptor-produced ciphertext in the bounce window.
            r.digest = fnv1a(r.digest, p.hostMemory().read(
                                           mm::kBounceH2d.base,
                                           step.h2dBytes));
            if (step.d2hBytes) {
                Bytes down = timedD2h(step.d2hBytes);
                if (Bytes(up.begin(), up.begin() + step.d2hBytes) !=
                    down)
                    r.dataOk = false;
                r.digest = fnv1a(r.digest, down);
                // SC-produced ciphertext in the D2H window.
                r.digest = fnv1a(r.digest, p.hostMemory().read(
                                               mm::kBounceD2h.base,
                                               step.d2hBytes));
            }
        } else if (step.d2hBytes) {
            r.digest = fnv1a(r.digest, timedD2h(step.d2hBytes));
        }
    }

    r.simSeconds = ticksToSeconds(busy);
    r.mibPerSec = double(totalBytes) / kMiB / r.simSeconds;
    const sc::PacketFilter &filter = p.pcieSc()->filter();
    r.tlbHitRate = filter.tlbHitRate();
    r.tlbHits = filter.tlbHits();
    r.tlbMisses = filter.tlbMisses();
    r.a1Blocked = p.system().sumCounter("a1_blocked");
}

/**
 * Phase 2: the same mix as a depth-K in-flight stream. Step i's
 * upload targets device region i; its download reads that region
 * back, so overlapping steps never race device memory. Each step
 * carries an independently seeded payload and folds its delivered
 * plaintext into a per-step slot — combined in fixed step order
 * afterwards, the digest is independent of completion order (which
 * legitimately varies with width once transfers overlap).
 */
void
runPipelined(SweepResult &r)
{
    Platform p(benchConfig(r.threads));
    TrustReport trust = p.establishTrust();
    if (!trust.ok()) {
        std::fprintf(stderr, "trust establishment failed: %s\n",
                     trust.failure.c_str());
        std::exit(1);
    }

    const std::vector<Step> mix = pipelinedMix();
    std::vector<std::uint64_t> stepDigest(mix.size(), 0);
    std::vector<Bytes> uploads(mix.size());
    for (std::size_t i = 0; i < mix.size(); ++i) {
        sim::Rng rng(0xF18A ^ static_cast<std::uint64_t>(i));
        uploads[i] = rng.bytes(mix[i].h2dBytes);
    }

    std::size_t nextStep = 0;
    std::size_t liveSteps = 0;
    Tick t0 = p.system().now();
    Tick tEnd = t0;

    // A download-only step (the logit download) reads back a donor
    // region some earlier upload filled: the first step whose upload
    // covers the download length. By the time it issues, far more
    // than kPipelineDepth steps have retired, so the upload it
    // depends on has long completed.
    auto donorOf = [&](std::size_t i) {
        for (std::size_t j = 0; j < i; ++j)
            if (mix[j].h2dBytes >= mix[i].d2hBytes)
                return j;
        std::fprintf(stderr, "no donor upload for step %zu\n", i);
        std::exit(1);
    };
    auto stepVram = [&](std::size_t i) {
        std::size_t region = mix[i].h2dBytes ? i : donorOf(i);
        return mm::kXpuVram.base + region * kVramStride;
    };

    std::function<void()> issueNext = [&]() {
        while (liveSteps < kPipelineDepth && nextStep < mix.size()) {
            std::size_t i = nextStep++;
            ++liveSteps;
            auto finish = [&, i](Bytes down) {
                if (!down.empty()) {
                    const Bytes &up = mix[i].h2dBytes
                                          ? uploads[i]
                                          : uploads[donorOf(i)];
                    if (down.size() > up.size() ||
                        std::memcmp(down.data(), up.data(),
                                    down.size()) != 0)
                        r.pipeOk = false;
                    stepDigest[i] = fnv1a(0, down);
                }
                tEnd = p.system().now();
                --liveSteps;
                issueNext();
            };
            auto download = [&, i, finish = std::move(finish)]() {
                if (!mix[i].d2hBytes) {
                    finish({});
                    return;
                }
                p.runtime().memcpyD2H(stepVram(i), mix[i].d2hBytes,
                                      false, std::move(finish));
            };
            if (mix[i].h2dBytes)
                p.runtime().memcpyH2D(stepVram(i), uploads[i],
                                      mix[i].h2dBytes,
                                      std::move(download));
            else
                download();
        }
    };
    issueNext();
    p.run();
    if (liveSteps != 0 || nextStep != mix.size()) {
        std::fprintf(stderr, "pipelined phase did not drain\n");
        std::exit(1);
    }

    std::uint64_t totalBytes = 0;
    r.pipeDigest = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        totalBytes += mix[i].h2dBytes + mix[i].d2hBytes;
        r.pipeDigest ^= stepDigest[i] * (2 * i + 1);
    }
    r.pipeSimSeconds = ticksToSeconds(tEnd - t0);
    r.pipeMibPerSec =
        double(totalBytes) / kMiB / r.pipeSimSeconds;

    r.h2dPrepareTicks =
        *p.adaptor()->stats().histogramHandle("h2d_prepare_ticks").get();
    r.d2hCollectTicks =
        *p.adaptor()->stats().histogramHandle("d2h_collect_ticks").get();
    r.metaRingOccupancy =
        *p.adaptor()->stats().histogramHandle("meta_ring_occupancy").get();
}

SweepResult
runWidth(int threads, std::uint64_t &totalBytes)
{
    SweepResult r;
    r.threads = threads;
    auto wall0 = std::chrono::steady_clock::now();
    runSequential(r, totalBytes);
    // Wall-clock pool stats cover the pipelined phase only, so each
    // width's queue-wait percentiles stand alone.
    crypto::WorkerPool &pool = crypto::WorkerPool::shared();
    pool.resetStats();
    runPipelined(r);
    r.queueWaitNs = pool.queueWaitHistogram();
    r.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    return r;
}

const SweepResult *
rowAt(const std::vector<SweepResult> &rows, int threads)
{
    for (const SweepResult &r : rows)
        if (r.threads == threads)
            return &r;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    LogConfig::Quiet quiet;
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        quick = quick || std::string(argv[i]) == "--quick";

    std::vector<int> widths =
        quick ? std::vector<int>{1, 8}
              : std::vector<int>{1, 2, 4, 8, 16};

    std::printf("=== Parallel secure data plane (Fig-8 transfer mix, "
                "4KiB chunks, depth-%d pipeline) ===\n\n",
                kPipelineDepth);
    std::printf("%-8s %12s %12s %12s %13s %9s %18s\n", "threads",
                "seq time", "pipe time", "pipe tput", "pipe speedup",
                "TLB hit", "seq digest");

    std::vector<SweepResult> rows;
    std::uint64_t totalBytes = 0;
    for (int threads : widths) {
        SweepResult r = runWidth(threads, totalBytes);
        double pipeSpeedup = rows.empty()
                                 ? 1.0
                                 : rows.front().pipeSimSeconds /
                                       r.pipeSimSeconds;
        std::printf("%-8d %10.3fms %10.3fms %9.1fMiB/s %12.2fx "
                    "%8.1f%% %018llx\n",
                    r.threads, r.simSeconds * 1e3,
                    r.pipeSimSeconds * 1e3, r.pipeMibPerSec,
                    pipeSpeedup, r.tlbHitRate * 100.0,
                    (unsigned long long)r.digest);
        std::fflush(stdout);
        rows.push_back(r);
    }

    bool identical = true, pipeIdentical = true, verified = true;
    bool tlbOk = true, clean = true;
    for (const SweepResult &r : rows) {
        identical = identical && r.digest == rows.front().digest;
        pipeIdentical =
            pipeIdentical && r.pipeDigest == rows.front().pipeDigest;
        verified = verified && r.dataOk && r.pipeOk;
        tlbOk = tlbOk && r.tlbHitRate >= 0.9;
        clean = clean && r.a1Blocked == 0;
    }
    const SweepResult *at4 = rowAt(rows, 4);
    const SweepResult *at8 = rowAt(rows, 8);
    double speedupAt4 =
        at4 ? rows.front().simSeconds / at4->simSeconds : 0.0;
    double pipeSpeedupAt8 =
        at8 ? rows.front().pipeSimSeconds / at8->pipeSimSeconds : 0.0;

    {
        bench::BenchJson out("BENCH_pipeline.json",
                             "fig8-llama2-transfer-mix");
        obs::JsonEmitter &json = out.json();
        json.field("chunk_bytes", 4096);
        json.field("total_bytes", totalBytes);
        json.field("pipeline_depth", kPipelineDepth);
        json.field("quick", quick);
        json.key("sweep");
        json.beginArray();
        for (const SweepResult &r : rows) {
            char digest[17], pipeDigest[17];
            std::snprintf(digest, sizeof(digest), "%016llx",
                          (unsigned long long)r.digest);
            std::snprintf(pipeDigest, sizeof(pipeDigest), "%016llx",
                          (unsigned long long)r.pipeDigest);
            json.beginObject();
            json.field("crypto_threads", r.threads);
            json.field("sim_seconds", r.simSeconds);
            json.field("throughput_mib_s", r.mibPerSec);
            json.field("speedup",
                       rows.front().simSeconds / r.simSeconds);
            json.field("pipeline_sim_seconds", r.pipeSimSeconds);
            json.field("pipeline_throughput_mib_s", r.pipeMibPerSec);
            json.field("pipeline_speedup",
                       rows.front().pipeSimSeconds /
                           r.pipeSimSeconds);
            json.field("wall_seconds", r.wallSeconds);
            json.field("tlb_hit_rate", r.tlbHitRate);
            json.field("tlb_hits", r.tlbHits);
            json.field("tlb_misses", r.tlbMisses);
            json.field("a1_blocked", r.a1Blocked);
            json.field("digest", digest);
            json.field("pipeline_digest", pipeDigest);
            json.field("seq_roundtrip_ok", r.dataOk);
            json.field("pipe_roundtrip_ok", r.pipeOk);
            out.latency("h2d_prepare_ticks", r.h2dPrepareTicks);
            out.latency("d2h_collect_ticks", r.d2hCollectTicks);
            out.latency("meta_ring_occupancy", r.metaRingOccupancy);
            out.latency("queue_wait_ns", r.queueWaitNs);
            json.endObject();
        }
        json.endArray();
        if (at4)
            json.field("speedup_at_4_threads", speedupAt4);
        if (at8)
            json.field("pipeline_speedup_at_8_threads",
                       pipeSpeedupAt8);
        json.field("bit_identical_across_widths", identical);
        json.field("pipeline_digest_identical", pipeIdentical);
        json.field("roundtrip_verified", verified);
        json.field("tlb_hit_rate_ge_0_9", tlbOk);
        json.field("zero_stale_classifications", clean);
    }

    bool pass = identical && pipeIdentical && verified && tlbOk && clean;
    if (at4)
        pass = pass && speedupAt4 >= 2.5;
    if (at8)
        pass = pass && pipeSpeedupAt8 >= 6.0;
    std::printf("\nsequential speedup at 4 threads: %.2fx "
                "(target >= 2.50x)\n"
                "pipeline speedup at 8 threads: %.2fx "
                "(target >= 6.00x)\n"
                "bit-identical across widths: %s\n"
                "pipeline digests identical: %s\n"
                "roundtrips verified: %s\n"
                "TLB steady-state hit rate >= 90%%: %s\n"
                "stale-policy classifications: %s\n\n%s\n",
                speedupAt4, pipeSpeedupAt8, identical ? "yes" : "NO",
                pipeIdentical ? "yes" : "NO", verified ? "yes" : "NO",
                tlbOk ? "yes" : "NO", clean ? "none" : "DETECTED",
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
