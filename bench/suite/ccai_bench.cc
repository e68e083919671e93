/**
 * @file
 * ccai_bench, the repository benchmark. One binary, four workloads:
 *
 *   xfer_bulk      one tenant streams the Fig-8 transfer mix (sharded
 *                  weights, decode rounds, a logit download) through
 *                  the secure path with real payloads, 12 deep;
 *   xfer_small_mt  four tenants share one PCIe-SC with 4-64 KiB
 *                  transfers, three reads per write, 4 KiB chunks;
 *   llm_infer      a seeded list of chat requests on one ccAI platform
 *                  after a single model load, then on vanilla;
 *   serve_fleet    10k tenants' Poisson arrivals on 1000 roofline
 *                  devices, swept over a load ladder.
 *
 * A run sets the system up kSetups times (setup_s is the median),
 * runs one untimed warm-up pass, then timed passes until --seconds
 * have elapsed. Simulated-time metrics come from the first timed pass
 * and depend on the seed alone; host_s is the fastest timed pass
 * (see bestPassSeconds()). With --trace <dir>, a
 * second instance reruns the
 * workload with the span tracer on and reports the per-layer table.
 *
 * Every layer is measured from outside: wall time of the calls this
 * file makes, the counters and histograms of the metrics registry,
 * and the spans the tracer records. Output: one line per metric,
 * "<workload> <metric> <value> <unit> [n=<samples>]", the same data
 * as JSON (--json), and exit status 1 when any check fails.
 *
 *   ccai_bench --workload <name> --seed <n> [--seconds <s>]
 *              [--trace <dir>] [--json <path>]
 *   ccai_bench --smoke [--trace <dir>] [--json <path>]
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ccai/platform.hh"
#include "common/buffer_pool.hh"
#include "common/logging.hh"
#include "crypto/gcm.hh"
#include "obs/json.hh"
#include "sc/packet_filter.hh"
#include "serve/load_generator.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "xpu/xpu_spec.hh"

using namespace ccai;
namespace mm = ccai::pcie::memmap;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Crypto lanes of the Adaptor and of the PCIe-SC data engines: a
 * constant rather than the host's core count, so simulated time is
 * the same on every machine. One lane, not four: with more, the
 * shared crypto::WorkerPool crashes or hangs within seconds of
 * xfer_bulk traffic. The last worker of a runJobs()/parallelFor()
 * batch decrements the pending count and only then locks the batch's
 * done-mutex, by which time the caller may have seen zero and
 * unwound the stack frame that holds it. Raise this (which changes
 * every simulated metric) once that is fixed.
 */
constexpr int kCryptoLanes = 1;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 9;
/** Timed passes per measurement, however short --seconds is. */
constexpr std::size_t kMinPasses = 3;
/** Seed whose simulated-time metrics expected.json pins. */
constexpr std::uint64_t kDefaultSeed = 1;
constexpr const char *kExpectedPath = CCAI_BENCH_DIR "/expected.json";
/** Threads the process may run: the caller plus up to three pool
 * workers. */
constexpr int kMaxThreads = 4;

using MetricUnits = std::vector<std::pair<std::string, std::string>>;

/** End-to-end metrics, printed for every workload. */
const MetricUnits kEndToEnd = {
    {"setup_s", "s"},
    {"host_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"secure_overhead_pct", "%"},
};

/** End-to-end metrics in simulated time: a function of the seed. */
const std::vector<std::string> kSimEndToEnd = {
    "latency_p50_ms", "latency_p90_ms", "ops_per_s",
    "secure_overhead_pct"};

/** Per-layer metrics of a traced run. Every workload prints every
 * name; a layer the workload does not exercise reads 0. */
const MetricUnits kPerLayer = {
    // sim: the event core.
    {"sim.events_dispatched", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.max_pending", "count"},
    {"sim.host_ns_per_event", "ns"},
    // trust: set-up.
    {"trust.establish_host_ms", "ms"},
    {"trust.add_tenant_host_ms", "ms"},
    // llm: the inference engine.
    {"llm.model_load_host_ms", "ms"},
    {"llm.request_host_ms_p50", "ms"},
    {"llm.kernel_launches", "count"},
    {"llm.decode_steps", "count"},
    {"llm.swap_bytes", "B"},
    // tvm: the Adaptor and the runtime.
    {"tvm.h2d_bytes", "B"},
    {"tvm.d2h_bytes", "B"},
    {"tvm.h2d_chunks", "count"},
    {"tvm.seal_busy_ms", "ms"},
    {"tvm.open_busy_ms", "ms"},
    {"tvm.cpu_queue_p99_us", "us"},
    {"tvm.h2d_prepare_p99_us", "us"},
    {"tvm.d2h_collect_p99_us", "us"},
    {"tvm.mmio_writes", "count"},
    {"tvm.mmio_reads", "count"},
    {"tvm.policy_updates", "count"},
    {"tvm.meta_ring_occupancy_p50", "count"},
    {"tvm.host_us_per_transfer", "us"},
    {"tvm.retransmits", "count"},
    {"tvm.record_fetch_retries", "count"},
    {"tvm.stage_copies", "count"},
    // crypto.
    {"crypto.gcm_bytes", "B"},
    {"crypto.seal_host_ns_per_kib", "ns"},
    {"crypto.open_host_ns_per_kib", "ns"},
    {"crypto.host_share", "ratio"},
    // sc: the PCIe-SC.
    {"sc.down_tlps", "count"},
    {"sc.up_tlps", "count"},
    {"sc.filter_classified", "count"},
    {"sc.a3_checked", "count"},
    {"sc.a4_passthrough", "count"},
    {"sc.filter_tlb_hit_rate", "ratio"},
    {"sc.a2_down_busy_ms", "ms"},
    {"sc.a2_up_busy_ms", "ms"},
    {"sc.forward_queue_p99_us", "us"},
    {"sc.blocked", "count"},
    {"sc.integrity_failures", "count"},
    {"sc.retransmits", "count"},
    // pcie: links and the root complex.
    {"pcie.host_link.tlps", "count"},
    {"pcie.host_link.wire_tlps", "count"},
    {"pcie.host_link.busy_ms", "ms"},
    {"pcie.host_link.queue_p99_us", "us"},
    {"pcie.internal_link.busy_ms", "ms"},
    {"pcie.internal_link.queue_p99_us", "us"},
    {"pcie.rc.read_latency_p99_us", "us"},
    {"pcie.rc.read_retries", "count"},
    // xpu: the device model.
    {"xpu.kernels", "count"},
    {"xpu.dma_ops", "count"},
    {"xpu.mmio_reads", "count"},
    {"xpu.cmd_busy_ms", "ms"},
    {"xpu.cmd_p50_us", "us"},
    // serve: the serving control plane.
    {"serve.arrivals", "count"},
    {"serve.admitted", "count"},
    {"serve.shed_on_admit", "count"},
    {"serve.shed_on_deadline", "count"},
    {"serve.retries", "count"},
    {"serve.admit_ratio", "ratio"},
    {"serve.shed_ratio", "ratio"},
    {"serve.queue_depth_p99", "count"},
    {"serve.backoff_p99_ms", "ms"},
    {"serve.ttft_p99_ms", "ms"},
    {"serve.max_rate_at_slo_rps", "1/s"},
    {"serve.host_us_per_request", "us"},
    // common: the buffer pool.
    {"common.buffer_pool_hit_rate", "ratio"},
    {"common.buffer_pool_high_watermark", "count"},
    // obs: tracing itself.
    {"obs.trace_events", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.trace_overhead_pct", "%"},
};

/** A check that failed; main() turns it into exit status 1. */
struct BenchError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/**
 * Host seconds of one pass: the fastest timed pass. Every pass does
 * the same work (the output digest checks it), and other tenants of
 * the machine slow passes down, sometimes by a third for several
 * seconds, but never speed one up: the fastest pass tracks the
 * program's own cost, where the median or even the lower quartile
 * moves with the neighbours' load.
 */
double
bestPassSeconds(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** Percentile @p p (0..100) of exact samples, interpolated between
 * the two nearest ranks. */
double
percentile(std::vector<Tick> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return static_cast<double>(v[lo]) +
           frac * (static_cast<double>(v[hi]) -
                   static_cast<double>(v[lo]));
}

double
ticksToMs(double ticks)
{
    return ticks / static_cast<double>(kTicksPerMs);
}

double
ticksToUs(double ticks)
{
    return ticks / static_cast<double>(kTicksPerUs);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::uint64_t
fnv1a(std::uint64_t h, const std::uint8_t *data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/** @p n seeded payload bytes, eight per draw. */
Bytes
payload(sim::Rng &rng, std::size_t n)
{
    Bytes out(n);
    for (std::size_t i = 0; i < n; i += 8) {
        std::uint64_t w = rng.engine()();
        std::memcpy(out.data() + i, &w, std::min<std::size_t>(8, n - i));
    }
    return out;
}

/** @p base scaled by a seeded factor in [127/128, 129/128], rounded
 * to 4 KiB: the seed moves every size a little and the mix not at
 * all, so simulated-time metrics differ from seed to seed by about a
 * percent. */
std::uint64_t
jitter(sim::Rng &rng, std::uint64_t base)
{
    double f = 127.0 / 128.0 + rng.uniform01() / 64.0;
    double units = f * static_cast<double>(base) / (4 * kKiB);
    return std::max<std::uint64_t>(1, std::llround(units)) * 4 * kKiB;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Threads of this process per /proc/self/status; 0 if unknown. */
int
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    return 0;
}

struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples behind a median or percentile; 0 for other values. */
    std::uint64_t samples = 0;
};

using MetricTable = std::map<std::string, Metric>;

// ---------------------------------------------------------------------
// Layer probes: the metrics registry and the span tracer, read from
// outside the simulator.

using GroupFilter = std::function<bool(std::string_view)>;

bool
isAdaptor(std::string_view g)
{
    return g == "adaptor" ||
           (g.starts_with("tenant") && g.ends_with(".adaptor"));
}

bool
isHostLink(std::string_view g)
{
    return g.starts_with("rc_sw.") || g.starts_with("sw_sc.");
}

bool
isInternalLink(std::string_view g)
{
    return g.starts_with("sc_xpu.");
}

GroupFilter
group(std::string prefix)
{
    return [prefix = std::move(prefix)](std::string_view g) {
        return g == prefix;
    };
}

/** Counters and histogram buckets of every metric group, by prefix,
 * so a traced pass can be told apart from the set-up before it. */
class RegistryState
{
  public:
    static RegistryState
    capture(const obs::MetricsRegistry &registry)
    {
        RegistryState s;
        for (const obs::MetricGroup *g : registry.groups()) {
            Group &dst = s.groups_[g->prefix()];
            for (const auto &[name, c] : g->counters())
                dst.counters[name] += c.value();
            for (const auto &[name, h] : g->histograms()) {
                auto &b = dst.buckets[name];
                b.resize(obs::Histogram::kBuckets);
                for (std::size_t i = 0; i < b.size(); ++i)
                    b[i] += h.bucketCount(i);
            }
        }
        return s;
    }

    /** What was added since @p earlier. */
    RegistryState
    minus(const RegistryState &earlier) const
    {
        RegistryState d = *this;
        for (auto &[prefix, g] : d.groups_) {
            auto it = earlier.groups_.find(prefix);
            if (it == earlier.groups_.end())
                continue;
            for (auto &[name, v] : g.counters) {
                auto c = it->second.counters.find(name);
                if (c != it->second.counters.end())
                    v -= c->second;
            }
            for (auto &[name, b] : g.buckets) {
                auto h = it->second.buckets.find(name);
                if (h == it->second.buckets.end())
                    continue;
                for (std::size_t i = 0; i < b.size(); ++i)
                    b[i] -= h->second[i];
            }
        }
        return d;
    }

    std::uint64_t
    counter(const GroupFilter &match, const std::string &name) const
    {
        std::uint64_t sum = 0;
        for (const auto &[prefix, g] : groups_) {
            auto it = g.counters.find(name);
            if (match(prefix) && it != g.counters.end())
                sum += it->second;
        }
        return sum;
    }

    /** Percentile of histogram @p name merged over matching groups,
     * interpolated inside its bucket like obs::Histogram does. */
    double
    percentile(const GroupFilter &match, const std::string &name,
               double p) const
    {
        std::vector<std::uint64_t> merged(obs::Histogram::kBuckets, 0);
        for (const auto &[prefix, g] : groups_) {
            auto it = g.buckets.find(name);
            if (!match(prefix) || it == g.buckets.end())
                continue;
            for (std::size_t i = 0; i < merged.size(); ++i)
                merged[i] += it->second[i];
        }
        std::uint64_t n =
            std::accumulate(merged.begin(), merged.end(), std::uint64_t{0});
        if (n == 0)
            return 0.0;
        double rank = p / 100.0 * static_cast<double>(n);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < merged.size(); ++i) {
            if (merged[i] == 0)
                continue;
            if (static_cast<double>(seen + merged[i]) >= rank) {
                double frac = (rank - static_cast<double>(seen)) /
                              static_cast<double>(merged[i]);
                double lo = static_cast<double>(
                    obs::Histogram::bucketLow(i));
                double hi = static_cast<double>(
                    obs::Histogram::bucketHigh(i));
                return lo + frac * (hi - lo);
            }
            seen += merged[i];
        }
        return 0.0;
    }

  private:
    struct Group
    {
        std::map<std::string, std::uint64_t> counters;
        std::map<std::string, std::vector<std::uint64_t>> buckets;
    };
    std::map<std::string, Group> groups_;
};

/** Layer a span's duration is charged to; nullptr for spans no
 * per-layer metric uses. */
const char *
spanLayer(std::string_view track, std::string_view span)
{
    if (span == "h2d.seal")
        return "tvm.seal";
    if (span == "d2h.open")
        return "tvm.open";
    if (span == "a2.down")
        return "sc.a2_down";
    if (span == "a2.up")
        return "sc.a2_up";
    if (span == "cmd")
        return "xpu.cmd";
    if (span == "wire" && isHostLink(track))
        return "pcie.host_link";
    if (span == "wire" && isInternalLink(track))
        return "pcie.internal_link";
    return nullptr;
}

/**
 * Busy time per layer, folded out of the tracer's spans. Folding and
 * clearing after every request keeps a long traced run under the
 * tracer's event cap; the first batch is written out as a Chrome
 * trace for Perfetto. Busy sums of spans overlap, so they are not an
 * exact split of the end-to-end time.
 */
class SpanFold
{
  public:
    explicit SpanFold(std::string exportPath)
        : exportPath_(std::move(exportPath))
    {}

    void
    fold(obs::Tracer &tracer)
    {
        if (!exportPath_.empty()) {
            std::ofstream os(exportPath_);
            tracer.writeChromeTrace(os);
            if (!os)
                throw BenchError("cannot write trace " + exportPath_);
            exportPath_.clear();
        }
        const std::vector<std::string> &tracks = tracer.trackNames();
        for (const obs::TraceEvent &ev : tracer.events()) {
            if (ev.phase != 'X' || ev.track >= tracks.size())
                continue;
            if (const char *layer = spanLayer(tracks[ev.track], ev.name))
                busy_[layer] += ev.dur;
        }
        events_ += tracer.eventCount();
        dropped_ += tracer.dropped();
        tracer.clear();
    }

    const std::map<std::string, Tick> &busy() const { return busy_; }
    std::uint64_t events() const { return events_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::string exportPath_;
    std::map<std::string, Tick> busy_;
    std::uint64_t events_ = 0;
    std::uint64_t dropped_ = 0;
};

/** Layer state taken just before the pass a traced run reports. */
struct LayerProbe
{
    RegistryState registry;
    std::uint64_t classified = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t blocked = 0;
    std::uint64_t poolHits = 0;
    std::uint64_t poolMisses = 0;

    static LayerProbe
    take(Platform &p)
    {
        LayerProbe s;
        s.registry = RegistryState::capture(p.metrics());
        if (sc::PcieSc *sc = p.pcieSc()) {
            s.classified = sc->filter().classified();
            s.tlbHits = sc->filter().tlbHits();
            s.tlbMisses = sc->filter().tlbMisses();
            s.blocked = sc->filter().blocked();
        }
        s.poolHits = BufferPool::global().hits();
        s.poolMisses = BufferPool::global().misses();
        return s;
    }
};

/** Per-layer metrics of platform @p p since @p before; @p busy holds
 * the span busy sums of the same interval. */
void
platformLayers(Platform &p, const LayerProbe &before,
               const std::map<std::string, Tick> &busy, MetricTable &out)
{
    const LayerProbe after = LayerProbe::take(p);
    const RegistryState d = after.registry.minus(before.registry);
    auto put = [&](const char *name, double v) { out[name].value = v; };
    auto busyMs = [&](const char *layer) {
        auto it = busy.find(layer);
        return it == busy.end() ? 0.0
                                : ticksToMs(static_cast<double>(it->second));
    };
    auto p99Us = [&](const GroupFilter &g, const char *hist) {
        return ticksToUs(d.percentile(g, hist, 99.0));
    };
    const GroupFilter sc = group("pcie_sc");
    const GroupFilter xpu = group("xpu");
    const GroupFilter rc = group("rc");

    put("tvm.h2d_bytes", d.counter(isAdaptor, "h2d_bytes"));
    put("tvm.d2h_bytes", d.counter(isAdaptor, "d2h_bytes"));
    put("tvm.h2d_chunks", d.counter(isAdaptor, "h2d_chunks"));
    put("tvm.seal_busy_ms", busyMs("tvm.seal"));
    put("tvm.open_busy_ms", busyMs("tvm.open"));
    put("tvm.cpu_queue_p99_us", p99Us(isAdaptor, "cpu_queue_ticks"));
    put("tvm.h2d_prepare_p99_us", p99Us(isAdaptor, "h2d_prepare_ticks"));
    put("tvm.d2h_collect_p99_us", p99Us(isAdaptor, "d2h_collect_ticks"));
    put("tvm.mmio_writes", d.counter(isAdaptor, "signed_writes"));
    put("tvm.mmio_reads", d.counter(isAdaptor, "io_reads"));
    put("tvm.policy_updates", d.counter(isAdaptor, "policy_updates"));
    put("tvm.meta_ring_occupancy_p50",
        d.percentile(isAdaptor, "meta_ring_occupancy", 50.0));
    put("tvm.retransmits",
        d.counter(isAdaptor, "transport_retransmits") +
            d.counter(isAdaptor, "transport_timeout_retransmits"));
    put("tvm.record_fetch_retries",
        d.counter(isAdaptor, "record_fetch_retries"));
    put("tvm.stage_copies", d.counter(isAdaptor, "h2d_stage_copies") +
                                d.counter(isAdaptor, "d2h_stage_copies"));

    put("sc.down_tlps", d.counter(sc, "down_tlps"));
    put("sc.up_tlps", d.counter(sc, "up_tlps"));
    put("sc.filter_classified", after.classified - before.classified);
    put("sc.a3_checked", d.counter(sc, "a3_checked"));
    put("sc.a4_passthrough", d.counter(sc, "a4_passthrough"));
    const std::uint64_t hits = after.tlbHits - before.tlbHits;
    const std::uint64_t misses = after.tlbMisses - before.tlbMisses;
    put("sc.filter_tlb_hit_rate",
        ratio(static_cast<double>(hits), static_cast<double>(hits + misses)));
    put("sc.a2_down_busy_ms", busyMs("sc.a2_down"));
    put("sc.a2_up_busy_ms", busyMs("sc.a2_up"));
    put("sc.forward_queue_p99_us", p99Us(sc, "forward_queue_ticks"));
    put("sc.blocked", after.blocked - before.blocked);
    put("sc.integrity_failures",
        d.counter(sc, "a2_integrity_failures") +
            d.counter(sc, "a3_integrity_failures"));
    put("sc.retransmits", d.counter(sc, "transport_retransmits") +
                              d.counter(sc, "transport_timeout_retransmits"));

    put("pcie.host_link.tlps", d.counter(isHostLink, "tlps"));
    put("pcie.host_link.wire_tlps", d.counter(isHostLink, "wire_tlps"));
    put("pcie.host_link.busy_ms", busyMs("pcie.host_link"));
    put("pcie.host_link.queue_p99_us", p99Us(isHostLink, "queue_ticks"));
    put("pcie.internal_link.busy_ms", busyMs("pcie.internal_link"));
    put("pcie.internal_link.queue_p99_us",
        p99Us(isInternalLink, "queue_ticks"));
    put("pcie.rc.read_latency_p99_us", p99Us(rc, "read_latency_ticks"));
    put("pcie.rc.read_retries", d.counter(rc, "read_retries"));

    put("xpu.kernels", d.counter(xpu, "kernels"));
    put("xpu.dma_ops",
        d.counter(xpu, "dma_h2d") + d.counter(xpu, "dma_d2h"));
    put("xpu.mmio_reads", d.counter(xpu, "mmio_reads"));
    put("xpu.cmd_busy_ms", busyMs("xpu.cmd"));
    put("xpu.cmd_p50_us", ticksToUs(d.percentile(xpu, "cmd_ticks", 50.0)));

    const std::uint64_t poolHits = after.poolHits - before.poolHits;
    const std::uint64_t poolMisses = after.poolMisses - before.poolMisses;
    put("common.buffer_pool_hit_rate",
        ratio(static_cast<double>(poolHits),
              static_cast<double>(poolHits + poolMisses)));
    put("common.buffer_pool_high_watermark",
        static_cast<double>(BufferPool::global().outstandingHighWatermark()));
}

// ---------------------------------------------------------------------
// Workloads.

/** Host time of the set-up steps, one entry per call. */
struct SetupTimes
{
    std::vector<double> establishS;
    std::vector<double> addTenantS;
    std::vector<double> modelLoadS;
};

/** What one pass of a workload produced. */
struct PassResult
{
    /** Simulated latency (ticks) of the workload's operation. */
    double latencyP50 = 0.0;
    double latencyP90 = 0.0;
    std::uint64_t latencySamples = 0;
    double opsPerSimSec = 0.0;
    double secureOverheadPct = 0.0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Named failed checks; the first few are kept. */
    std::vector<std::string> failures;
    /** Digest of the outputs: the same inputs must reproduce it. */
    std::uint64_t digest = 0;

    /** Event-core work of every System the pass drove. */
    std::uint64_t events = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t maxPending = 0;
    /** Operations the pass issued on the protected system. */
    std::uint64_t ops = 0;

    /** A failed operation, counted and named. */
    void
    fail(std::string what)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(std::move(what));
    }

    void
    addQueueWork(const sim::EventQueue::Stats &before,
                 const sim::EventQueue::Stats &after)
    {
        events += after.dispatched - before.dispatched;
        cancelled += after.cancelled - before.cancelled;
        maxPending = std::max(maxPending, after.maxPending);
    }

    void
    setLatencies(const std::vector<Tick> &samples)
    {
        latencyP50 = percentile(samples, 50.0);
        latencyP90 = percentile(samples, 90.0);
        latencySamples = samples.size();
    }
};

/**
 * One workload. The harness builds it kSetups times, then calls
 * pass() repeatedly on the last instance; every pass runs the same
 * inputs, which are made from the seed in the constructor.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the systems under test: one setup_s sample. */
    virtual void setup(SetupTimes &t) = 0;
    /** Untimed, before the warm-up pass: page in memory the timed
     * passes would otherwise touch for the first time. */
    virtual void prefault() {}
    /** Run the inputs once, verifying every output. */
    virtual PassResult pass() = 0;
    /** The platform a traced run records (nullptr: none). */
    virtual Platform *traced() { return nullptr; }
    /** Chunk size the workload's real payloads are sealed at. */
    virtual std::uint64_t chunkBytes() const { return 256 * kKiB; }
    /** Payload bytes sealed or opened per pass (Adaptor and SC). */
    virtual std::uint64_t gcmBytesPerPass() const { return 0; }
    /** Workload-specific per-layer metrics of the last pass. */
    virtual void layers(MetricTable &) const {}
    /** Host-time per-layer metrics, given the best pass time and
     * the ops of one pass. */
    virtual void hostLayers(MetricTable &, double, std::uint64_t) const {}

    /** Runs after each request, so a traced run can fold its spans
     * long before the tracer's event cap. */
    std::function<void()> afterRequest = [] {};
};

PlatformConfig
platformConfig(bool secure, std::uint64_t seed)
{
    PlatformConfig cfg;
    cfg.secure = secure;
    cfg.seed = seed;
    cfg.adaptorConfig.cryptoThreads = kCryptoLanes;
    cfg.scConfig.dataEngineThreads = kCryptoLanes;
    return cfg;
}

std::unique_ptr<Platform>
buildPlatform(const PlatformConfig &cfg, SetupTimes &t)
{
    auto p = std::make_unique<Platform>(cfg);
    auto t0 = Clock::now();
    TrustReport trust = p->establishTrust();
    if (cfg.secure)
        t.establishS.push_back(secondsSince(t0));
    if (!trust.ok())
        throw BenchError("trust establishment failed: " + trust.failure);
    return p;
}

/**
 * Touch every page of @p p's bounce and metadata arenas once, keeping
 * their contents. The 1 GiB of arenas pages in lazily as the rings
 * advance, which would slow the first several timed passes of a
 * transfer workload (and make peak RSS depend on how many ran).
 */
void
prefaultArenas(Platform &p)
{
    for (const pcie::AddrRange &r :
         {mm::kBounceH2d, mm::kBounceD2h, mm::kMetadataBuffer}) {
        std::uint8_t *base = p.hostMemory().raw(r.base, r.size);
        if (!base)
            continue;
        for (std::uint64_t off = 0; off < r.size;
             off += pcie::HostMemory::kPageSize) {
            volatile std::uint8_t *byte = base + off;
            *byte = *byte;
        }
    }
}

/** Transfers issued on one platform during a pass. */
struct TransferRun
{
    Tick makespan = 0;
    std::vector<Tick> latencies;
    std::uint64_t digest = kFnvBasis;
    std::uint64_t transfers = 0;
};

/** Shared tail of the two transfer workloads: fold the ccAI and
 * vanilla runs of one pass into its result. */
void
finishTransferPass(PassResult &r, const TransferRun &secure,
                   const TransferRun &vanilla)
{
    r.setLatencies(secure.latencies);
    r.opsPerSimSec = ratio(static_cast<double>(secure.transfers),
                           ticksToSeconds(secure.makespan));
    auto sum = [](const std::vector<Tick> &v) {
        return static_cast<double>(
            std::accumulate(v.begin(), v.end(), Tick{0}));
    };
    r.secureOverheadPct =
        100.0 * (ratio(sum(secure.latencies), sum(vanilla.latencies)) - 1.0);
    r.digest = secure.digest;
    r.ops = secure.transfers;
}

/**
 * xfer_bulk: the pipelined Fig-8 transfer mix -- 24 MiB of weight
 * shards, 16 decode rounds of 1 MiB up and 1 MiB down, a 4 MiB logit
 * download -- eight times over in one stream kept 12 transfers deep,
 * with real seeded payloads at the default 256 KiB chunk. Byte-bound:
 * crypto and the A2 engines do most of the work, per-chunk control
 * little. The seed jitters every size (see jitter()) and draws the
 * payloads; a small size change moves the pipeline's interleaving a
 * lot, so a pass averages over eight independently jittered mixes.
 */
class XferBulk : public Workload
{
  public:
    XferBulk(std::uint64_t seed, bool smoke) : seed_(seed)
    {
        sim::Rng rng(seed ^ sim::seedHash("xfer_bulk"));
        const std::uint64_t unit = smoke ? 16 * kKiB : kMiB;
        for (int n = 0; n < (smoke ? 1 : kMixes); ++n) {
            for (std::uint64_t shard : {3, 3, 6, 3, 3, 3, 3})
                mix_.push_back({jitter(rng, shard * unit), 0});
            for (int round = 0; round < (smoke ? 2 : 16); ++round) {
                std::uint64_t bytes = jitter(rng, unit);
                mix_.push_back({bytes, bytes});
            }
            mix_.push_back({0, jitter(rng, 4 * unit)});
        }

        payloads_.resize(mix_.size());
        for (std::size_t i = 0; i < mix_.size(); ++i) {
            region_.push_back(i);
            if (mix_[i].h2d) {
                payloads_[i] = payload(rng, mix_[i].h2d);
            } else {
                // A download-only step reads back the first upload
                // that covers it; by then that upload has retired.
                auto donor = std::find_if(
                    mix_.begin(), mix_.begin() + i,
                    [&](const Step &s) { return s.h2d >= mix_[i].d2h; });
                if (donor == mix_.begin() + i)
                    throw BenchError("xfer_bulk: no donor upload");
                region_[i] = donor - mix_.begin();
            }
            gcmBytes_ += 2 * (mix_[i].h2d + mix_[i].d2h);
        }
    }

    void
    setup(SetupTimes &t) override
    {
        secure_ = buildPlatform(platformConfig(true, seed_), t);
        vanilla_ = buildPlatform(platformConfig(false, seed_), t);
    }

    PassResult
    pass() override
    {
        PassResult r;
        TransferRun secure = stream(*secure_, r);
        TransferRun vanilla = stream(*vanilla_, r);
        finishTransferPass(r, secure, vanilla);
        return r;
    }

    void prefault() override { prefaultArenas(*secure_); }
    Platform *traced() override { return secure_.get(); }
    std::uint64_t gcmBytesPerPass() const override { return gcmBytes_; }

    void
    hostLayers(MetricTable &out, double passS,
               std::uint64_t ops) const override
    {
        out["tvm.host_us_per_transfer"].value =
            ratio(passS * 1e6, static_cast<double>(ops));
    }

  private:
    /** One step: @p h2d bytes up, then @p d2h bytes read back from
     * the same device region. */
    struct Step
    {
        std::uint64_t h2d = 0;
        std::uint64_t d2h = 0;
    };

    /** Transfers kept in flight. */
    static constexpr std::size_t kDepth = 12;
    /** Fig-8 mixes per pass. */
    static constexpr int kMixes = 8;
    /** Device region per step (no step exceeds 7 MiB): steps never
     * share one, so overlapping steps cannot race. */
    static constexpr std::uint64_t kVramStride = 8 * kMiB;

    TransferRun
    stream(Platform &p, PassResult &r)
    {
        TransferRun run;
        std::vector<std::uint64_t> stepDigest(mix_.size(), kFnvBasis);
        std::vector<bool> retired(mix_.size(), false);
        std::size_t next = 0;
        std::size_t live = 0;
        const auto q0 = p.system().eventq().snapshotStats();
        const Tick t0 = p.system().now();
        Tick tEnd = t0;
        tvm::Runtime &rt = p.runtime();
        // The vanilla baseline moves length-only payloads: its timing
        // does not depend on the bytes, and real ones would page in
        // the runtime's 2 GiB staging area as the pass count grows.
        const bool real = p.config().secure;

        std::function<void()> issue = [&] {
            while (live < kDepth && next < mix_.size()) {
                // A download-only step waits for the upload it reads.
                if (!mix_[next].h2d && !retired[region_[next]])
                    break;
                const std::size_t i = next++;
                ++live;
                const Addr dev =
                    mm::kXpuVram.base + region_[i] * kVramStride;
                auto finish = [&, i] {
                    tEnd = p.system().now();
                    retired[i] = true;
                    --live;
                    issue();
                };
                auto download = [&, i, dev, finish] {
                    if (!mix_[i].d2h) {
                        finish();
                        return;
                    }
                    const Tick issued = p.system().now();
                    ++run.transfers;
                    ++r.attempted;
                    rt.memcpyD2H(
                        dev, mix_[i].d2h, !real,
                        [&, i, issued, finish](Bytes down) {
                            run.latencies.push_back(p.system().now() -
                                                    issued);
                            const Bytes &up = payloads_[region_[i]];
                            if (real && (down.size() != mix_[i].d2h ||
                                std::memcmp(down.data(), up.data(),
                                            down.size()) != 0))
                                r.fail("xfer_bulk: step " +
                                       std::to_string(i) +
                                       " read back wrong bytes");
                            stepDigest[i] = fnv1a(kFnvBasis, down.data(),
                                                  down.size());
                            finish();
                        });
                };
                if (!mix_[i].h2d) {
                    download();
                    continue;
                }
                const Tick issued = p.system().now();
                ++run.transfers;
                ++r.attempted;
                rt.memcpyH2D(dev,
                             real ? std::optional<Bytes>(payloads_[i])
                                  : std::nullopt,
                             mix_[i].h2d,
                             [&, issued, download] {
                                 run.latencies.push_back(
                                     p.system().now() - issued);
                                 download();
                             });
            }
        };
        issue();
        p.run();
        if (live != 0 || next != mix_.size())
            r.fail("xfer_bulk: the mix did not drain");
        r.addQueueWork(q0, p.system().eventq().snapshotStats());
        run.makespan = tEnd - t0;
        for (std::uint64_t d : stepDigest)
            run.digest = fnv1a(run.digest,
                               reinterpret_cast<const std::uint8_t *>(&d),
                               sizeof d);
        return run;
    }

    std::uint64_t seed_;
    std::vector<Step> mix_;
    /** Device region (step index) each step writes or reads. */
    std::vector<std::size_t> region_;
    std::vector<Bytes> payloads_;
    std::uint64_t gcmBytes_ = 0;
    std::unique_ptr<Platform> secure_;
    std::unique_ptr<Platform> vanilla_;
};

/**
 * xfer_small_mt: four tenants share one PCIe-SC, each in a closed loop
 * of one 4-64 KiB write followed by three reads of it, at 4 KiB
 * chunks. The same Adaptor/SC code as xfer_bulk the other way round:
 * read-heavy and per-record, so doorbells, metadata-ring reaps, filter
 * lookups over four tenants' rules and ARQ acks do most of the work.
 * The vanilla run drives the same four loops through its one runtime.
 */
class XferSmallMt : public Workload
{
  public:
    XferSmallMt(std::uint64_t seed, bool smoke) : seed_(seed)
    {
        sim::Rng rng(seed ^ sim::seedHash("xfer_small_mt"));
        // Stratified, so every seed runs the same size mix: each tenant
        // writes every size from 4 to 64 KiB in turn, in a seeded
        // order, and the k-th read of a write draws its length from
        // the k-th third of the lengths the write allows.
        std::vector<std::uint64_t> sizesKib(61);
        std::iota(sizesKib.begin(), sizesKib.end(), 4);
        scripts_.resize(kTenants);
        for (auto &script : scripts_) {
            for (int n = 0; n < (smoke ? 3 : kRounds); ++n) {
                if (n % sizesKib.size() == 0)
                    std::shuffle(sizesKib.begin(), sizesKib.end(),
                                 rng.engine());
                const std::uint64_t kib = sizesKib[n % sizesKib.size()];
                Round round;
                round.data = payload(rng, kib * kKiB);
                gcmBytes_ += 2 * round.data.size();
                for (int k = 0; k < kReadsPerWrite; ++k) {
                    const std::uint64_t span = kib - 4;
                    round.reads[k] =
                        rng.uniform(4 + span * k / kReadsPerWrite,
                                    4 + span * (k + 1) / kReadsPerWrite) *
                        kKiB;
                    gcmBytes_ += 2 * round.reads[k];
                }
                script.push_back(std::move(round));
            }
        }
    }

    void
    setup(SetupTimes &t) override
    {
        PlatformConfig cfg = platformConfig(true, seed_);
        cfg.maxTenants = kTenants;
        cfg.adaptorConfig.chunkBytes = kChunk;
        secure_ = buildPlatform(cfg, t);
        runtimes_ = {&secure_->runtime()};
        for (std::uint32_t slot = 1; slot < kTenants; ++slot) {
            auto t0 = Clock::now();
            Platform::Tenant &tenant = secure_->addTenant(pcie::Bdf{
                0x00, static_cast<std::uint8_t>(0x03 + slot), 0x0});
            t.addTenantS.push_back(secondsSince(t0));
            runtimes_.push_back(tenant.runtime.get());
        }
        PlatformConfig vanillaCfg = platformConfig(false, seed_);
        vanillaCfg.adaptorConfig.chunkBytes = kChunk;
        vanilla_ = buildPlatform(vanillaCfg, t);
    }

    PassResult
    pass() override
    {
        PassResult r;
        TransferRun secure = drive(*secure_, runtimes_, r);
        TransferRun vanilla = drive(
            *vanilla_,
            std::vector<tvm::Runtime *>(kTenants, &vanilla_->runtime()),
            r);
        finishTransferPass(r, secure, vanilla);
        return r;
    }

    void prefault() override { prefaultArenas(*secure_); }
    Platform *traced() override { return secure_.get(); }
    std::uint64_t chunkBytes() const override { return kChunk; }
    std::uint64_t gcmBytesPerPass() const override { return gcmBytes_; }

    void
    hostLayers(MetricTable &out, double passS,
               std::uint64_t ops) const override
    {
        out["tvm.host_us_per_transfer"].value =
            ratio(passS * 1e6, static_cast<double>(ops));
    }

  private:
    static constexpr std::uint32_t kTenants = 4;
    static constexpr std::uint64_t kChunk = 4 * kKiB;
    static constexpr int kReadsPerWrite = 3;
    /** Write rounds per tenant per pass. */
    static constexpr int kRounds = 480;
    /** Device region per tenant. */
    static constexpr std::uint64_t kVramStride = 16 * kMiB;

    struct Round
    {
        Bytes data;
        std::uint64_t reads[kReadsPerWrite] = {};
    };

    TransferRun
    drive(Platform &p, const std::vector<tvm::Runtime *> &runtimes,
          PassResult &r)
    {
        TransferRun run;
        struct Cursor
        {
            std::size_t round = 0;
            int phase = 0; ///< 0: write next, k: k-th read next
            std::uint64_t digest = kFnvBasis;
        };
        std::vector<Cursor> cursors(kTenants);
        // Length-only on vanilla, as in XferBulk::stream.
        const bool real = p.config().secure;
        const auto q0 = p.system().eventq().snapshotStats();
        const Tick t0 = p.system().now();
        Tick tEnd = t0;

        std::function<void(std::uint32_t)> step = [&](std::uint32_t t) {
            Cursor &c = cursors[t];
            if (c.round == scripts_[t].size())
                return;
            const Round &round = scripts_[t][c.round];
            const Addr dev = mm::kXpuVram.base + t * kVramStride;
            const Tick issued = p.system().now();
            ++run.transfers;
            ++r.attempted;
            if (c.phase == 0) {
                runtimes[t]->memcpyH2D(
                    dev,
                    real ? std::optional<Bytes>(round.data) : std::nullopt,
                    round.data.size(), [&, t, issued] {
                        tEnd = p.system().now();
                        run.latencies.push_back(tEnd - issued);
                        cursors[t].phase = 1;
                        step(t);
                    });
                return;
            }
            const std::uint64_t len = round.reads[c.phase - 1];
            runtimes[t]->memcpyD2H(
                dev, len, !real, [&, t, issued, len](Bytes down) {
                    Cursor &cur = cursors[t];
                    const Bytes &data = scripts_[t][cur.round].data;
                    tEnd = p.system().now();
                    run.latencies.push_back(tEnd - issued);
                    if (real &&
                        (down.size() != len ||
                         std::memcmp(down.data(), data.data(), len) != 0))
                        r.fail("xfer_small_mt: tenant " +
                               std::to_string(t) + " round " +
                               std::to_string(cur.round) +
                               " read back wrong bytes");
                    cur.digest =
                        fnv1a(cur.digest, down.data(), down.size());
                    if (++cur.phase > kReadsPerWrite) {
                        cur.phase = 0;
                        ++cur.round;
                    }
                    step(t);
                });
        };
        for (std::uint32_t t = 0; t < kTenants; ++t)
            step(t);
        p.run();
        for (std::uint32_t t = 0; t < kTenants; ++t) {
            if (cursors[t].round != scripts_[t].size())
                r.fail("xfer_small_mt: tenant " + std::to_string(t) +
                       " did not finish its loop");
            run.digest = fnv1a(
                run.digest,
                reinterpret_cast<const std::uint8_t *>(&cursors[t].digest),
                sizeof cursors[t].digest);
        }
        r.addQueueWork(q0, p.system().eventq().snapshotStats());
        run.makespan = tEnd - t0;
        return run;
    }

    std::uint64_t seed_;
    std::vector<std::vector<Round>> scripts_;
    std::uint64_t gcmBytes_ = 0;
    std::unique_ptr<Platform> secure_;
    std::unique_ptr<Platform> vanilla_;
    /** Tenant runtimes of the secure platform, owner first. */
    std::vector<tvm::Runtime *> runtimes_;
};

/**
 * llm_infer: a seeded list of chat requests, one at a time (closed
 * loop), on one ccAI platform after a single model load, then the same
 * list on vanilla. The list is stratified: every prompt class (64-512
 * tokens) meets every batch class (1-24; 24 crosses the 1 MiB D2H
 * staging slot), so each seed runs the same shape of mix and the seed
 * jitters prompt lengths and the order. Payloads are synthetic, so no
 * real crypto runs: the event core, links, Packet Filter, xPU command
 * path and engine do the work. Each request gets its own engine.
 */
class LlmInfer : public Workload
{
  public:
    LlmInfer(std::uint64_t seed, bool smoke) : seed_(seed)
    {
        sim::Rng rng(seed ^ sim::seedHash("llm_infer"));
        for (int n = 0; n < kPerClass * 16; ++n) {
            llm::InferenceConfig cfg;
            const std::uint32_t prompt = 64u << (n % 4);
            cfg.batch = std::array{1u, 4u, 12u, 24u}[n / 4 % 4];
            cfg.inTokens = prompt - static_cast<std::uint32_t>(
                                        rng.uniform(0, prompt / 64));
            cfg.outTokens = smoke ? 4 : kOutTokens;
            requests_.push_back(cfg);
        }
        std::shuffle(requests_.begin(), requests_.end(), rng.engine());
        if (smoke)
            requests_.resize(2);
    }

    void
    setup(SetupTimes &t) override
    {
        secure_.platform = buildPlatform(platformConfig(true, seed_), t);
        vanilla_.platform = buildPlatform(platformConfig(false, seed_), t);
        t.modelLoadS.push_back(loadModel(secure_));
        loadModel(vanilla_);
    }

    PassResult
    pass() override
    {
        PassResult r;
        std::vector<Tick> ttft;
        double secureE2e = 0.0;
        double vanillaE2e = 0.0;
        double tokens = 0.0;
        last_ = {};
        std::uint64_t digest = kFnvBasis;
        for (std::size_t i = 0; i < requests_.size(); ++i) {
            auto t0 = Clock::now();
            auto m = runRequest(secure_, i, r, "ccAI");
            requestHostS_.push_back(secondsSince(t0));
            afterRequest();
            if (!m)
                continue;
            ttft.push_back(secondsToTicks(m->ttftSeconds));
            secureE2e += m->e2eSeconds;
            tokens += static_cast<double>(requests_[i].batch) *
                      requests_[i].effectiveOutTokens();
            last_.kernelLaunches += m->kernelLaunches;
            last_.decodeSteps += m->decodeSteps;
            last_.swapBytes += m->swapBytes;
            for (double v : {m->ttftSeconds, m->e2eSeconds})
                digest = fnv1a(digest,
                               reinterpret_cast<const std::uint8_t *>(&v),
                               sizeof v);
        }
        for (std::size_t i = 0; i < requests_.size(); ++i)
            if (auto m = runRequest(vanilla_, i, r, "vanilla"))
                vanillaE2e += m->e2eSeconds;
        r.setLatencies(ttft);
        r.opsPerSimSec = ratio(tokens, secureE2e);
        r.secureOverheadPct = 100.0 * (ratio(secureE2e, vanillaE2e) - 1.0);
        r.ops = requests_.size();
        r.digest = digest;
        return r;
    }

    Platform *traced() override { return secure_.platform.get(); }

    void
    layers(MetricTable &out) const override
    {
        out["llm.kernel_launches"].value =
            static_cast<double>(last_.kernelLaunches);
        out["llm.decode_steps"].value =
            static_cast<double>(last_.decodeSteps);
        out["llm.swap_bytes"].value = static_cast<double>(last_.swapBytes);
    }

    void
    hostLayers(MetricTable &out, double, std::uint64_t) const override
    {
        out["llm.request_host_ms_p50"] = {median(requestHostS_) * 1e3, "",
                                          requestHostS_.size()};
    }

  private:
    /** Output tokens per request: TTFT does not depend on it, and a
     * short answer keeps a pass of 32 requests near one host second. */
    static constexpr std::uint32_t kOutTokens = 32;
    /** Requests per (prompt, batch) class. */
    static constexpr int kPerClass = 2;

    struct Side
    {
        std::unique_ptr<Platform> platform;
        /** Engines live as long as their platform's System. */
        std::vector<std::unique_ptr<llm::InferenceEngine>> engines;
    };

    llm::InferenceConfig
    forDevice(const Side &s, llm::InferenceConfig cfg) const
    {
        cfg.device = s.platform->config().xpuSpec;
        return cfg;
    }

    double
    loadModel(Side &s)
    {
        auto t0 = Clock::now();
        s.engines.push_back(std::make_unique<llm::InferenceEngine>(
            s.platform->system(), "loader", s.platform->runtime(),
            forDevice(s, llm::InferenceConfig{})));
        bool loaded = false;
        s.engines.back()->loadModel([&] { loaded = true; });
        s.platform->run();
        if (!loaded)
            throw BenchError("llm_infer: model load did not complete");
        return secondsSince(t0);
    }

    std::optional<llm::InferenceMetrics>
    runRequest(Side &s, std::size_t i, PassResult &r, const char *side)
    {
        // engines[0] loaded the model; request i runs on engines[i+1].
        if (s.engines.size() == i + 1)
            s.engines.push_back(std::make_unique<llm::InferenceEngine>(
                s.platform->system(), "request" + std::to_string(i),
                s.platform->runtime(), forDevice(s, requests_[i])));
        std::optional<llm::InferenceMetrics> out;
        const auto q0 = s.platform->system().eventq().snapshotStats();
        ++r.attempted;
        s.engines[i + 1]->run([&](llm::InferenceMetrics m) { out = m; });
        s.platform->run();
        r.addQueueWork(q0, s.platform->system().eventq().snapshotStats());
        if (!out)
            r.fail("llm_infer: request " + std::to_string(i) +
                   " did not complete on " + side);
        return out;
    }

    std::uint64_t seed_;
    std::vector<llm::InferenceConfig> requests_;
    Side secure_;
    Side vanilla_;
    /** Engine counters summed over the last pass's ccAI requests. */
    llm::InferenceMetrics last_;
    std::vector<double> requestHostS_;
};

/**
 * serve_fleet: 10k tenants' open-loop Poisson arrivals (in simulated
 * time, so the generator is never late) on 1000 roofline devices,
 * 200 of each XpuSpec, with admission, retry and least-loaded routing
 * as bench_serve_chaos's controlled plane runs them, no crashes, and a
 * 6 s deadline. One pass sweeps a ladder of offered loads relative to
 * the fleet's roofline capacity, plus vanilla at the reported point.
 * Each point merges independent arrival streams rather than running
 * one long one: the queues of a longer run drift toward saturation,
 * which moves the TTFT median a lot from seed to seed. Only the serve
 * control plane and the timer wheel run: a packet-path change should
 * leave this workload unchanged.
 */
class ServeFleet : public Workload
{
  public:
    ServeFleet(std::uint64_t seed, bool smoke)
        : replicas_(smoke ? 1 : kReplicas)
    {
        base_.tenants = smoke ? 100 : 10000;
        base_.seed = seed;
        base_.horizon = smoke ? kTicksPerSec : kHorizon;
        base_.profile.promptTokens = 128;
        base_.profile.genTokens = 32;
        base_.profile.sloDeadline = 6 * kTicksPerSec;
        const auto &specs = xpu::XpuSpec::all();
        for (int g = 0; g < (smoke ? 2 : 200); ++g)
            base_.fleet.insert(base_.fleet.end(), specs.begin(),
                               specs.end());
        base_.leastLoadedRouting = true;
        base_.admission.enabled = true;
        base_.admission.tokenBurst = 4.0;
        base_.admission.maxQueueDepth = 3;
        base_.admission.deadlineShedding = true;
        base_.retry.enabled = true;
        base_.retry.maxAttempts = 3;
        base_.retry.baseBackoff = 20 * kTicksPerMs;
        base_.retry.maxBackoff = 500 * kTicksPerMs;
        base_.healthProbeInterval = 100 * kTicksPerMs;
    }

    /** Sizing the offered load needs the fleet's roofline capacity,
     * which a generator over the whole fleet computes. */
    void
    setup(SetupTimes &) override
    {
        for (bool secure : {true, false}) {
            serve::ServeConfig cfg = base_;
            cfg.secure = secure;
            sim::System sys;
            serve::LoadGenerator gen(sys, "capacity_probe", cfg);
            double &capacity = secure ? capacity_ : vanillaCapacity_;
            capacity = 0.0;
            for (std::uint32_t d = 0; d < cfg.fleet.size(); ++d)
                capacity += 1.0 / ticksToSeconds(gen.serviceEstimate(d));
        }
    }

    PassResult
    pass() override
    {
        PassResult r;
        points_.clear();
        for (double factor : kLadder)
            points_.push_back(runPoint(factor, true, r));
        const Point vanilla = runPoint(kReportedLoad, false, r);
        const Point &at = reported();
        r.latencyP50 = at.ttft.percentile(50.0);
        r.latencyP90 = at.ttft.percentile(90.0);
        r.latencySamples = at.ttft.count();
        r.opsPerSimSec = at.report.goodputPerSec;
        r.secureOverheadPct =
            100.0 * (ratio(at.e2e.p50(), vanilla.e2e.p50()) - 1.0);
        r.digest = kFnvBasis;
        for (const Point &p : points_) {
            r.ops += p.report.arrivals;
            for (std::uint64_t v :
                 {p.report.arrivals, p.report.admitted, p.report.completed,
                  p.report.shedOnAdmit, p.report.shedOnDeadline,
                  p.report.retries})
                r.digest = fnv1a(r.digest,
                                 reinterpret_cast<const std::uint8_t *>(&v),
                                 sizeof v);
        }
        return r;
    }

    void
    layers(MetricTable &out) const override
    {
        serve::ServeReport sum;
        obs::Histogram backoff;
        double maxRate = 0.0;
        for (const Point &p : points_) {
            sum.arrivals += p.report.arrivals;
            sum.admitted += p.report.admitted;
            sum.shedOnAdmit += p.report.shedOnAdmit;
            sum.shedOnDeadline += p.report.shedOnDeadline;
            sum.retries += p.report.retries;
            backoff.merge(p.backoff);
            if (ttftP99OverArrivals(p) <= kSlo)
                maxRate = std::max(maxRate, p.factor * capacity_);
        }
        const Point &at = reported();
        auto put = [&](const char *name, double v) { out[name].value = v; };
        const double arrivals = static_cast<double>(sum.arrivals);
        put("serve.arrivals", arrivals);
        put("serve.admitted", static_cast<double>(sum.admitted));
        put("serve.shed_on_admit", static_cast<double>(sum.shedOnAdmit));
        put("serve.shed_on_deadline",
            static_cast<double>(sum.shedOnDeadline));
        put("serve.retries", static_cast<double>(sum.retries));
        put("serve.admit_ratio",
            ratio(static_cast<double>(sum.admitted), arrivals));
        put("serve.shed_ratio",
            ratio(static_cast<double>(sum.shedOnAdmit + sum.shedOnDeadline),
                  arrivals));
        put("serve.queue_depth_p99", at.queueDepth.percentile(99.0));
        put("serve.backoff_p99_ms", ticksToMs(backoff.percentile(99.0)));
        put("serve.ttft_p99_ms", ticksToMs(at.ttft.percentile(99.0)));
        put("serve.max_rate_at_slo_rps", maxRate);
    }

    void
    hostLayers(MetricTable &out, double passS,
               std::uint64_t ops) const override
    {
        out["serve.host_us_per_request"].value =
            ratio(passS * 1e6, static_cast<double>(ops));
    }

  private:
    /** Offered load as a share of roofline capacity. */
    static constexpr double kLadder[] = {0.5, 0.7, 0.8, 0.9, 1.0};
    /** Ladder point the end-to-end metrics report. */
    static constexpr double kReportedLoad = 0.8;
    /** TTFT p99 limit of max_rate_at_slo_rps, in seconds. */
    static constexpr double kSlo = 1.5;
    /** Arrival window of each stream. */
    static constexpr Tick kHorizon = 4 * kTicksPerSec;
    /** Independent arrival streams per ladder point. */
    static constexpr std::uint64_t kReplicas = 4;

    struct Point
    {
        double factor = 0.0;
        serve::ServeReport report;
        obs::Histogram ttft;
        obs::Histogram e2e;
        obs::Histogram queueDepth;
        obs::Histogram backoff;
    };

    /** TTFT p99 (seconds) over every arrival; a request refused or
     * never answered counts as a miss. */
    static double
    ttftP99OverArrivals(const Point &p)
    {
        const double rank = 0.99 * static_cast<double>(p.report.arrivals);
        if (rank > static_cast<double>(p.ttft.count()))
            return HUGE_VAL;
        return ticksToSeconds(static_cast<Tick>(p.ttft.percentile(
            100.0 * rank / static_cast<double>(p.ttft.count()))));
    }

    const Point &
    reported() const
    {
        for (const Point &p : points_)
            if (p.factor == kReportedLoad)
                return p;
        throw BenchError("serve_fleet: reported load missing");
    }

    Point
    runPoint(double factor, bool secure, PassResult &r)
    {
        // Vanilla runs at the same share of its own capacity: one seed
        // draws the same arrivals at both rates, time-scaled, so the
        // two runs queue alike and their latency ratio is the
        // protection's cost rather than a difference in load.
        const double capacity = secure ? capacity_ : vanillaCapacity_;
        serve::ServeConfig cfg = base_;
        cfg.secure = secure;
        cfg.profile.aggregateRatePerSec = factor * capacity;
        // Per-tenant admit rate: 120% of the fair share of capacity.
        cfg.admission.tokenRatePerSec = 1.2 * capacity / cfg.tenants;

        Point p;
        p.factor = factor;
        serve::ServeReport &sum = p.report;
        for (std::uint64_t replica = 0; replica < replicas_; ++replica) {
            cfg.seed = base_.seed * kReplicas + replica;
            sim::System sys;
            serve::LoadGenerator gen(sys, "serve", cfg);
            const auto q0 = sys.eventq().snapshotStats();
            gen.start();
            sys.eventq().run();
            r.addQueueWork(q0, sys.eventq().snapshotStats());

            const obs::MetricGroup *stats = sys.metrics().find("serve");
            if (!stats)
                throw BenchError("serve_fleet: no serve metric group");
            p.ttft.merge(stats->histograms().at("ttft_ticks"));
            p.e2e.merge(stats->histograms().at("e2e_ticks"));
            p.queueDepth.merge(stats->histograms().at("queue_depth"));
            p.backoff.merge(stats->histograms().at("backoff_ticks"));

            const serve::ServeReport rep = gen.report();
            const std::string where =
                std::string("serve_fleet: ") + (secure ? "" : "vanilla ") +
                "load " + std::to_string(factor) + " stream " +
                std::to_string(replica);
            r.attempted += rep.arrivals;
            if (rep.arrivals != rep.admitted + rep.shedOnAdmit)
                r.fail(where + ": arrivals != admitted + shed_on_admit");
            if (rep.admitted != rep.completed + rep.shedOnDeadline)
                r.fail(where + ": admitted != completed + shed_on_deadline");
            if (!sys.eventq().empty())
                r.fail(where + ": the event queue did not drain");
            sum.arrivals += rep.arrivals;
            sum.admitted += rep.admitted;
            sum.completed += rep.completed;
            sum.shedOnAdmit += rep.shedOnAdmit;
            sum.shedOnDeadline += rep.shedOnDeadline;
            sum.retries += rep.retries;
            sum.goodputPerSec += rep.goodputPerSec / replicas_;
        }
        return p;
    }

    std::uint64_t replicas_;
    serve::ServeConfig base_;
    /** Roofline capacity (requests/s) of the ccAI and vanilla fleet. */
    double capacity_ = 0.0;
    double vanillaCapacity_ = 0.0;
    std::vector<Point> points_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    if (name == "xfer_bulk")
        return std::make_unique<XferBulk>(seed, smoke);
    if (name == "xfer_small_mt")
        return std::make_unique<XferSmallMt>(seed, smoke);
    if (name == "llm_infer")
        return std::make_unique<LlmInfer>(seed, smoke);
    if (name == "serve_fleet")
        return std::make_unique<ServeFleet>(seed, smoke);
    return nullptr;
}

const std::vector<std::string> kWorkloads = {"xfer_bulk", "xfer_small_mt",
                                             "llm_infer", "serve_fleet"};

// ---------------------------------------------------------------------
// Harness.

/** Everything one measurement of a workload produced. */
struct Measurement
{
    std::vector<double> setupS;
    SetupTimes setups;
    /** Host seconds of each timed pass. */
    std::vector<double> passS;
    PassResult first;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    MetricTable layers;
    std::uint64_t chunkBytes = 0;
    std::uint64_t gcmBytes = 0;
    std::uint64_t traceEvents = 0;
    std::uint64_t traceDropped = 0;
    /** Peak RSS after the first timed pass, so that it does not
     * depend on how many passes the host managed. */
    double peakRssMib = 0.0;

    void
    absorb(const PassResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &f : r.failures)
            if (failures.size() < 16 &&
                std::find(failures.begin(), failures.end(), f) ==
                    failures.end())
                failures.push_back(f);
    }
};

/**
 * Set a workload up @p setups times, keeping the last instance, run
 * one untimed warm-up pass (so the filter TLB, cipher caches and
 * buffer pool start warm), then time passes until @p seconds have elapsed
 * and at least @p minPasses ran. With @p fold the timed passes run
 * traced, and the first one's per-layer table is recorded.
 */
Measurement
measure(const std::function<std::unique_ptr<Workload>()> &make, int setups,
        double seconds, std::size_t minPasses, SpanFold *fold)
{
    Measurement m;
    std::unique_ptr<Workload> w;
    for (int i = 0; i < setups; ++i) {
        w.reset();
        w = make();
        auto t0 = Clock::now();
        w->setup(m.setups);
        m.setupS.push_back(secondsSince(t0));
    }
    m.chunkBytes = w->chunkBytes();
    m.gcmBytes = w->gcmBytesPerPass();
    w->prefault();
    m.absorb(w->pass());

    Platform *p = fold ? w->traced() : nullptr;
    if (p) {
        p->setTracingEnabled(true);
        w->afterRequest = [&] { fold->fold(p->tracer()); };
    }
    const auto start = Clock::now();
    while (m.passS.size() < minPasses || secondsSince(start) < seconds) {
        const bool first = m.passS.empty();
        std::optional<LayerProbe> probe;
        if (first && p)
            probe = LayerProbe::take(*p);
        auto t0 = Clock::now();
        PassResult r = w->pass();
        if (p)
            fold->fold(p->tracer());
        m.passS.push_back(secondsSince(t0));
        if (first) {
            m.first = r;
            m.peakRssMib = peakRssMib();
            if (fold) {
                if (p)
                    platformLayers(*p, *probe, fold->busy(), m.layers);
                w->layers(m.layers);
                m.traceEvents = fold->events();
            }
        } else if (r.digest != m.first.digest) {
            r.failures.push_back("timed pass " +
                                 std::to_string(m.passS.size()) +
                                 " reproduced different outputs");
        }
        m.absorb(r);
    }
    if (fold)
        m.traceDropped = fold->dropped();
    else
        w->hostLayers(m.layers, bestPassSeconds(m.passS), m.first.ops);
    return m;
}

/** Host ns per KiB of serial AES-GCM seal and open of one @p chunk
 * byte buffer, timed around AesGcm::sealInPlace/openInPlace. */
std::pair<double, double>
gcmHostNsPerKib(std::uint64_t chunk)
{
    sim::Rng rng(0x6C3);
    const crypto::AesGcm gcm(payload(rng, 32));
    const Bytes iv = payload(rng, crypto::kGcmIvSize);
    Bytes buf = payload(rng, chunk);
    std::uint8_t tag[crypto::kGcmTagSize];
    std::vector<double> seal;
    std::vector<double> open;
    auto ns = [](Clock::duration d) {
        return std::chrono::duration<double, std::nano>(d).count();
    };
    const auto end = Clock::now() + std::chrono::milliseconds(50);
    while (Clock::now() < end || seal.size() < 16) {
        auto t0 = Clock::now();
        gcm.sealInPlace(iv, buf.data(), buf.size(), nullptr, 0, tag);
        auto t1 = Clock::now();
        if (!gcm.openInPlace(iv, buf.data(), buf.size(), tag, nullptr, 0))
            throw BenchError("crypto: open rejected its own seal");
        auto t2 = Clock::now();
        seal.push_back(ns(t1 - t0));
        open.push_back(ns(t2 - t1));
    }
    const double kib = static_cast<double>(chunk) / 1024.0;
    return {median(seal) / kib, median(open) / kib};
}

/** Sim-time end-to-end metrics pinned per workload: {"<workload>":
 * {"<metric>": <number>, ...}, ...}. */
using Expected = std::map<std::string, std::map<std::string, double>>;

Expected
readExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw BenchError("cannot read " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string s = buf.str();
    std::size_t i = 0;
    auto skipSpace = [&] {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    };
    auto peek = [&](char c) {
        skipSpace();
        return i < s.size() && s[i] == c;
    };
    auto expect = [&](char c) {
        if (!peek(c))
            throw BenchError(path + ": expected '" + std::string(1, c) +
                             "' at offset " + std::to_string(i));
        ++i;
    };
    auto string = [&] {
        expect('"');
        std::size_t close = s.find('"', i);
        if (close == std::string::npos)
            throw BenchError(path + ": unterminated string");
        std::string out = s.substr(i, close - i);
        i = close + 1;
        return out;
    };
    auto number = [&] {
        skipSpace();
        const char *begin = s.c_str() + i;
        char *end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin)
            throw BenchError(path + ": expected a number at offset " +
                             std::to_string(i));
        i += static_cast<std::size_t>(end - begin);
        return v;
    };
    Expected out;
    expect('{');
    while (!peek('}')) {
        auto &metrics = out[string()];
        expect(':');
        expect('{');
        while (!peek('}')) {
            std::string name = string();
            expect(':');
            metrics[name] = number();
            if (!peek('}'))
                expect(',');
        }
        expect('}');
        if (!peek('}'))
            expect(',');
    }
    expect('}');
    return out;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    std::string traceDir;
    std::string jsonPath;
    bool smoke = false;
};

struct WorkloadRun
{
    std::string name;
    MetricTable metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Host seconds of each untraced set-up and timed pass. */
    std::vector<double> setupS;
    std::vector<double> passS;
};

const std::string *
unitOf(const MetricUnits &list, const std::string &name)
{
    for (const auto &[metric, unit] : list)
        if (metric == name)
            return &unit;
    return nullptr;
}

WorkloadRun
runWorkload(const std::string &name, const Options &o,
            const Expected &expected)
{
    auto make = [&] { return makeWorkload(name, o.seed, o.smoke); };
    const bool traced = !o.traceDir.empty();
    const double seconds = traced ? o.seconds / 2 : o.seconds;
    const std::size_t minPasses = o.smoke ? 2 : kMinPasses;

    Measurement plain =
        measure(make, o.smoke ? 1 : kSetups, seconds, minPasses, nullptr);
    WorkloadRun run{name};
    MetricTable &t = run.metrics;
    const PassResult &first = plain.first;
    const double passS = bestPassSeconds(plain.passS);
    t["setup_s"] = {median(plain.setupS), "", plain.setupS.size()};
    t["host_s"] = {passS, "", plain.passS.size()};
    t["peak_rss_mib"].value = plain.peakRssMib;
    t["latency_p50_ms"] = {ticksToMs(first.latencyP50), "",
                           first.latencySamples};
    t["latency_p90_ms"] = {ticksToMs(first.latencyP90), "",
                           first.latencySamples};
    t["ops_per_s"].value = first.opsPerSimSec;
    t["secure_overhead_pct"].value = first.secureOverheadPct;
    run.attempted = plain.attempted;
    run.failed = plain.failed;
    run.failures = plain.failures;
    run.setupS = plain.setupS;
    run.passS = plain.passS;

    if (o.seed == kDefaultSeed) {
        const std::string key = (o.smoke ? "smoke." : "") + name;
        auto it = expected.find(key);
        if (it == expected.end()) {
            run.failures.push_back("expected.json has no entry " + key);
        } else {
            for (const std::string &metric : kSimEndToEnd) {
                auto pinned = it->second.find(metric);
                if (pinned == it->second.end() ||
                    pinned->second != t[metric].value)
                    run.failures.push_back(
                        metric + " = " +
                        obs::JsonEmitter::formatDouble(t[metric].value) +
                        ", expected.json pins " +
                        (pinned == it->second.end()
                             ? std::string("nothing")
                             : obs::JsonEmitter::formatDouble(
                                   pinned->second)));
            }
        }
    }

    if (traced) {
        SpanFold fold(o.traceDir + "/" + name + ".trace.json");
        Measurement tr = measure(make, 1, seconds, minPasses, &fold);
        run.attempted += tr.attempted;
        run.failed += tr.failed;
        run.failures.insert(run.failures.end(), tr.failures.begin(),
                            tr.failures.end());
        const std::pair<const char *, double> pairs[] = {
            {"latency_p50_ms", tr.first.latencyP50 - first.latencyP50},
            {"latency_p90_ms", tr.first.latencyP90 - first.latencyP90},
            {"ops_per_s", tr.first.opsPerSimSec - first.opsPerSimSec},
            {"secure_overhead_pct",
             tr.first.secureOverheadPct - first.secureOverheadPct},
            {"outputs digest",
             static_cast<double>(tr.first.digest != first.digest)},
        };
        for (const auto &[metric, diff] : pairs)
            if (diff != 0.0)
                run.failures.push_back(std::string("tracing changed ") +
                                       metric);
        if (tr.traceDropped > 0)
            run.failures.push_back("the tracer dropped " +
                                   std::to_string(tr.traceDropped) +
                                   " events");

        MetricTable layers = tr.layers;
        layers.insert(plain.layers.begin(), plain.layers.end());
        auto put = [&](const char *metric, double v) {
            layers[metric].value = v;
        };
        put("sim.events_dispatched", static_cast<double>(tr.first.events));
        put("sim.events_cancelled", static_cast<double>(tr.first.cancelled));
        put("sim.max_pending", static_cast<double>(tr.first.maxPending));
        put("sim.host_ns_per_event",
            ratio(passS * 1e9, static_cast<double>(first.events)));
        layers["trust.establish_host_ms"] = {
            median(plain.setups.establishS) * 1e3, "",
            plain.setups.establishS.size()};
        layers["trust.add_tenant_host_ms"] = {
            median(plain.setups.addTenantS) * 1e3, "",
            plain.setups.addTenantS.size()};
        layers["llm.model_load_host_ms"] = {
            median(plain.setups.modelLoadS) * 1e3, "",
            plain.setups.modelLoadS.size()};
        const auto [sealNs, openNs] = gcmHostNsPerKib(plain.chunkBytes);
        put("crypto.gcm_bytes", static_cast<double>(plain.gcmBytes));
        put("crypto.seal_host_ns_per_kib", sealNs);
        put("crypto.open_host_ns_per_kib", openNs);
        put("crypto.host_share",
            ratio(static_cast<double>(plain.gcmBytes) / 1024.0 *
                      (sealNs + openNs) / 2.0,
                  passS * 1e9));
        put("obs.trace_events", static_cast<double>(tr.traceEvents));
        put("obs.trace_dropped", static_cast<double>(tr.traceDropped));
        put("obs.trace_overhead_pct",
            100.0 * (ratio(bestPassSeconds(tr.passS), passS) - 1.0));
        for (const auto &[metric, unit] : kPerLayer)
            layers[metric];
        t.insert(layers.begin(), layers.end());
    }

    for (auto &[metric, m] : t) {
        const std::string *unit = unitOf(kEndToEnd, metric);
        if (!unit)
            unit = unitOf(kPerLayer, metric);
        if (!unit)
            run.failures.push_back("unlisted metric " + metric);
        else
            m.unit = *unit;
    }
    if (int threads = threadCount(); threads > kMaxThreads)
        run.failures.push_back("ran " + std::to_string(threads) +
                               " threads, more than " +
                               std::to_string(kMaxThreads));
    return run;
}

/** Every digit of @p v; whole numbers without an exponent. */
std::string
formatValue(double v)
{
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    return obs::JsonEmitter::formatDouble(v);
}

void
printRun(const WorkloadRun &run)
{
    for (const auto &[metric, m] : run.metrics) {
        std::printf("%s %s %s %s", run.name.c_str(), metric.c_str(),
                    formatValue(m.value).c_str(), m.unit.c_str());
        if (m.samples)
            std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
        std::printf("\n");
    }
    std::printf("%s attempted %llu failed %llu: %s\n", run.name.c_str(),
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed),
                run.failures.empty() ? "correct" : "FAILED");
    for (const std::string &f : run.failures)
        std::printf("%s FAILED: %s\n", run.name.c_str(), f.c_str());
    std::fflush(stdout);
}

bool
writeJson(const std::string &path, const Options &o,
          const std::vector<WorkloadRun> &runs)
{
    std::ofstream os(path, std::ios::trunc);
    obs::JsonEmitter json(os);
    json.beginObject();
    json.field("seed", o.seed);
    json.field("seconds", o.seconds);
    json.field("traced", !o.traceDir.empty());
    json.field("smoke", o.smoke);
    json.key("workloads");
    json.beginArray();
    for (const WorkloadRun &run : runs) {
        json.beginObject();
        json.field("workload", run.name);
        json.field("correct", run.failures.empty());
        json.field("attempted", run.attempted);
        json.field("failed", run.failed);
        json.key("failures");
        json.beginArray();
        for (const std::string &f : run.failures)
            json.value(f);
        json.endArray();
        for (const auto &[key, samples] :
             {std::pair{"setup_s", &run.setupS},
              std::pair{"pass_s", &run.passS}}) {
            json.key(key);
            json.beginArray();
            for (double s : *samples)
                json.value(s);
            json.endArray();
        }
        json.key("metrics");
        json.beginObject();
        for (const auto &[metric, m] : run.metrics) {
            json.key(metric);
            json.beginObject();
            json.field("value", m.value);
            json.field("unit", m.unit);
            json.field("samples", m.samples);
            json.endObject();
        }
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
    return static_cast<bool>(os);
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "ccai_bench: %s\n"
                 "usage: ccai_bench --workload <name> --seed <n> "
                 "[--seconds <s>] [--trace <dir>] [--json <path>]\n"
                 "       ccai_bench --smoke [--trace <dir>] [--json "
                 "<path>]\n"
                 "workloads: xfer_bulk xfer_small_mt llm_infer "
                 "serve_fleet\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    LogConfig::Quiet quiet;
    // Fixed allocator thresholds. glibc otherwise raises its mmap
    // threshold after freeing each large block and trims the heap as
    // it shrinks, so whether a pass's multi-MiB buffers are fresh
    // zeroed pages or reused heap depends on the order of earlier
    // frees: host_s of one xfer_bulk seed came out 35% above another's.
    // The bounce arenas (512 MiB) stay above the mmap threshold and
    // page in lazily as before.
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    mallopt(M_TRIM_THRESHOLD, 512 << 20);
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--smoke")
            o.smoke = true;
        else if (arg == "--workload" && hasValue)
            o.workload = argv[++i];
        else if (arg == "--seed" && hasValue)
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && hasValue)
            o.seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace" && hasValue)
            o.traceDir = argv[++i];
        else if (arg == "--json" && hasValue)
            o.jsonPath = argv[++i];
        else
            return usage(("bad argument " + arg).c_str());
    }
    std::vector<std::string> names;
    if (o.smoke) {
        names = kWorkloads;
        o.seconds = 0.0;
    } else if (std::find(kWorkloads.begin(), kWorkloads.end(),
                         o.workload) != kWorkloads.end()) {
        names = {o.workload};
    } else {
        return usage("unknown or missing --workload");
    }

    std::vector<WorkloadRun> runs;
    bool correct = true;
    try {
        const Expected expected = readExpected(kExpectedPath);
        for (const std::string &name : names) {
            runs.push_back(runWorkload(name, o, expected));
            printRun(runs.back());
            correct = correct && runs.back().failures.empty();
        }
    } catch (const BenchError &e) {
        std::printf("FAILED: %s\n", e.what());
        return 1;
    }
    if (!o.jsonPath.empty() && !writeJson(o.jsonPath, o, runs)) {
        std::fprintf(stderr, "cannot write %s\n", o.jsonPath.c_str());
        return 1;
    }
    return correct ? 0 : 1;
}
