#include "tlp_fuzzer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "attack/hostile_endpoint.hh"
#include "backend/policy.hh"
#include "common/bytes_util.hh"
#include "common/logging.hh"
#include "pcie/memory_map.hh"

namespace fs = std::filesystem;

namespace ccai::attack
{

namespace mm = pcie::memmap;
namespace wk = pcie::wellknown;
using pcie::Tlp;

namespace
{

constexpr char kCorpusMagic[] = "ccai-tlp-corpus v1";

/**
 * Windows the coverage signal distinguishes. Inner windows precede
 * the enclosing DRAM ranges so "first containing" is the specific
 * one.
 */
constexpr pcie::AddrRange kWindows[] = {
    mm::kTvmPrivate,   mm::kBounceH2d,  mm::kBounceD2h,
    mm::kMetadataBuffer, mm::kHostDramLow, mm::kHostDramHigh,
    mm::kScMmio,       mm::kScRuleTable, mm::kXpuMmio,
    mm::kXpuVram,
};

bool
windowContainsAddr(const pcie::AddrRange &w, Addr a)
{
    return a >= w.base && a - w.base < w.size;
}

std::uint8_t
windowOrdinal(Addr a)
{
    for (std::size_t i = 0; i < std::size(kWindows); ++i)
        if (windowContainsAddr(kWindows[i], a))
            return static_cast<std::uint8_t>(i);
    return 0xff;
}

/** Overflow-safe "span [addr, addr+extent) fits inside window". */
bool
windowContainsSpan(const pcie::AddrRange &w, Addr addr,
                   std::uint64_t extent)
{
    return windowContainsAddr(w, addr) &&
           extent <= w.size - (addr - w.base);
}

/**
 * Requester identity bucket: the policy only distinguishes the
 * well-known actors, so coverage must too — hashing the raw 16-bit
 * ID would mint a fresh bucket for every random BDF a byte flip
 * produces and drown the signal in noise.
 */
std::uint8_t
requesterOrdinal(pcie::Bdf bdf)
{
    constexpr pcie::Bdf kActors[] = {
        pcie::wellknown::kRootComplex, pcie::wellknown::kTvm,
        pcie::wellknown::kRogueVm,     pcie::wellknown::kPcieSc,
        pcie::wellknown::kXpu,         pcie::wellknown::kMaliciousDevice,
    };
    for (std::size_t i = 0; i < std::size(kActors); ++i)
        if (bdf == kActors[i])
            return static_cast<std::uint8_t>(i);
    return 0xff;
}

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (i * 8)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::optional<backend::BlockReason>
blockReasonFromName(const std::string &name)
{
    for (std::size_t i = 0; i < backend::kBlockReasonCount; ++i) {
        auto r = static_cast<backend::BlockReason>(i);
        if (name == backend::blockReasonName(r))
            return r;
    }
    return std::nullopt;
}

bool
validHex(const std::string &text)
{
    std::size_t digits = 0;
    for (char c : text) {
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
        ++digits;
    }
    return digits % 2 == 0;
}

std::string
hex16(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------
// Corpus entries
// ---------------------------------------------------------------

std::string
CorpusEntry::serialize() const
{
    std::ostringstream out;
    out << kCorpusMagic << '\n';
    out << "name: " << name << '\n';
    out << "action: " << static_cast<int>(action) << '\n';
    out << "reason: " << backend::blockReasonName(reason) << '\n';
    out << "tlp: " << toHex(encoded) << '\n';
    return out.str();
}

std::optional<CorpusEntry>
CorpusEntry::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != kCorpusMagic)
        return std::nullopt;
    CorpusEntry entry;
    bool haveName = false, haveAction = false, haveReason = false,
         haveTlp = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        auto field = [&](const char *key) -> std::optional<std::string> {
            const std::string prefix = std::string(key) + ": ";
            if (line.rfind(prefix, 0) != 0)
                return std::nullopt;
            return line.substr(prefix.size());
        };
        if (auto v = field("name")) {
            entry.name = *v;
            haveName = true;
        } else if (auto v = field("action")) {
            const int a = std::atoi(v->c_str());
            if (a < 1 || a > 4)
                return std::nullopt;
            entry.action = static_cast<backend::SecurityAction>(a);
            haveAction = true;
        } else if (auto v = field("reason")) {
            auto r = blockReasonFromName(*v);
            if (!r)
                return std::nullopt;
            entry.reason = *r;
            haveReason = true;
        } else if (auto v = field("tlp")) {
            if (!validHex(*v))
                return std::nullopt;
            entry.encoded = fromHex(*v);
            haveTlp = true;
        } else {
            return std::nullopt; // unknown field
        }
    }
    if (!haveName || !haveAction || !haveReason || !haveTlp)
        return std::nullopt;
    return entry;
}

bool
saveCorpusEntry(const std::string &dir, const CorpusEntry &entry)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::ofstream out(fs::path(dir) / (entry.name + ".tlp"),
                      std::ios::trunc);
    if (!out)
        return false;
    out << entry.serialize();
    return static_cast<bool>(out);
}

std::optional<CorpusEntry>
loadCorpusFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return CorpusEntry::parse(text.str());
}

std::vector<CorpusEntry>
loadCorpusDir(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec))
        if (de.path().extension() == ".tlp")
            paths.push_back(de.path().string());
    std::sort(paths.begin(), paths.end());
    std::vector<CorpusEntry> out;
    for (const auto &path : paths) {
        auto entry = loadCorpusFile(path);
        if (!entry)
            fatal("corpus: malformed entry %s", path.c_str());
        out.push_back(std::move(*entry));
    }
    return out;
}

// ---------------------------------------------------------------
// TlpFuzzer
// ---------------------------------------------------------------

TlpFuzzer::TlpFuzzer(std::uint64_t seed) : rng_(seed)
{
    filter_.install(
        backend::defaultPolicy(wk::kTvm, wk::kXpu, wk::kPcieSc));
}

std::uint64_t
TlpFuzzer::coverageKey(const Tlp &tlp,
                       const backend::FilterVerdict &verdict) const
{
    // The bucket describes the DECISION PATH, not the input: hashing
    // free input fields (raw IDs, length buckets under a structural
    // reject) would mint a bucket per random mutant and drown the
    // signal — an early version did exactly that and "found" 30k
    // corpus entries in 100k iterations.
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, static_cast<std::uint64_t>(verdict.action));
    h = fnv1a(h, static_cast<std::uint64_t>(verdict.reason));
    const pcie::TlpAnomaly anomaly = tlp.headerAnomaly();
    if (anomaly != pcie::TlpAnomaly::None) {
        // Structural reject: the validator looked at anomaly kind,
        // type, and fmt. Nothing else participated.
        h = fnv1a(h, static_cast<std::uint64_t>(anomaly));
        h = fnv1a(h, static_cast<std::uint64_t>(tlp.type));
        h = fnv1a(h, static_cast<std::uint64_t>(tlp.fmt));
        return h;
    }
    // Rule walk: which rules fired and for whom. fmt stays out —
    // no rule matches on it, and for a well-formed TLP it is forced
    // by type + address anyway.
    h = fnv1a(h, verdict.l1Index);
    h = fnv1a(h, verdict.l2Index);
    h = fnv1a(h, static_cast<std::uint64_t>(tlp.type));
    h = fnv1a(h, tlp.type == pcie::TlpType::Message
                     ? static_cast<std::uint64_t>(tlp.msgCode)
                     : 0);
    h = fnv1a(h, requesterOrdinal(tlp.requester));
    // Window geometry (start + last-byte interval, distinguishing
    // boundary straddles) is relevant only once the walk reached the
    // address-sensitive L2 table; an L1 identity deny fires the same
    // way wherever the packet pointed.
    if (verdict.l2Index != backend::kNoRuleIndex ||
        verdict.reason == backend::BlockReason::L2NoMatch) {
        const std::uint64_t extent = backend::requestExtent(tlp);
        const Addr last = tlp.address > ~Addr(0) - (extent - 1)
                              ? ~Addr(0)
                              : tlp.address + extent - 1;
        h = fnv1a(h, windowOrdinal(tlp.address));
        h = fnv1a(h, windowOrdinal(last));
    }
    return h;
}

void
TlpFuzzer::checkOracle(const Tlp &tlp, const backend::FilterVerdict &verdict)
{
    if (verdict.blocked())
        return;
    auto violate = [&](const char *what) {
        ++stats_.oracleViolations;
        violations_.push_back(std::string(what) + ": " +
                              tlp.toString());
    };
    if (tlp.headerAnomaly() != pcie::TlpAnomaly::None) {
        violate("malformed TLP admitted");
        return;
    }
    if (!(tlp.requester == wk::kTvm) && !(tlp.requester == wk::kXpu)) {
        violate("unauthorized requester admitted");
        return;
    }
    const std::uint64_t extent = backend::requestExtent(tlp);
    if (tlp.requester == wk::kXpu &&
        tlp.type == pcie::TlpType::MemRead &&
        !windowContainsSpan(mm::kBounceH2d, tlp.address, extent))
        violate("xPU DMA read outside H2D bounce window");
    if (tlp.requester == wk::kXpu &&
        tlp.type == pcie::TlpType::MemWrite &&
        !windowContainsSpan(mm::kBounceD2h, tlp.address, extent))
        violate("xPU DMA write outside D2H bounce window");
}

bool
TlpFuzzer::execute(const Tlp &tlp, std::uint64_t *keyOut,
                   backend::FilterVerdict *verdictOut)
{
    const backend::FilterVerdict verdict = filter_.classifyEx(tlp);
    if (verdict.blocked()) {
        ++stats_.blocked;
        ++stats_.blockedByReason[static_cast<std::size_t>(
            verdict.reason)];
    } else {
        ++stats_.allowed;
    }
    checkOracle(tlp, verdict);
    const std::uint64_t key = coverageKey(tlp, verdict);
    if (keyOut)
        *keyOut = key;
    if (verdictOut)
        *verdictOut = verdict;
    if (coverage_.count(key))
        return false;
    coverage_.emplace(key, SIZE_MAX);
    ++stats_.newCoverage;
    return true;
}

void
TlpFuzzer::addSeed(const std::string &name, const Tlp &tlp)
{
    std::uint64_t key = 0;
    backend::FilterVerdict verdict;
    const bool fresh = execute(tlp, &key, &verdict);
    const Bytes encoded = pcie::encodeTlp(tlp);
    population_.push_back(encoded);
    // Only blocked classes are corpus material: the checked-in
    // corpus is a deny-regression suite. Allowed seeds still join
    // the population so mutation explores the boundary. Admission
    // is by name (curated classes may share a coverage bucket yet
    // each deserve a replay entry).
    if (verdict.blocked() && corpusNames_.insert(name).second) {
        if (fresh)
            coverage_[key] = corpus_.size();
        corpus_.push_back(
            {name, verdict.action, verdict.reason, encoded});
    }
}

void
TlpFuzzer::seedCorpus()
{
    for (const auto &seed : adversarialSeedTlps())
        addSeed(seed.name, seed.tlp);

    // Benign in-policy traffic: mutation parents on the allow side
    // of the boundary.
    addSeed("benign-tvm-param-write",
            Tlp::makeMemWrite(wk::kTvm,
                              mm::kScMmio.base + mm::screg::kParamWindow,
                              Bytes(64, 0x11)));
    addSeed("benign-tvm-vram-write",
            Tlp::makeMemWrite(wk::kTvm, mm::kXpuVram.base,
                              Bytes(64, 0x22)));
    addSeed("benign-xpu-bounce-read",
            Tlp::makeMemRead(wk::kXpu, mm::kBounceH2d.base, 4096, 1));
    addSeed("benign-xpu-bounce-write",
            Tlp::makeMemWrite(wk::kXpu, mm::kBounceD2h.base,
                              Bytes(128, 0x33)));
    addSeed("benign-xpu-msi",
            Tlp::makeMessage(wk::kXpu, pcie::MsgCode::MsiInterrupt));
    addSeed("benign-tvm-completion",
            Tlp::makeCompletion(wk::kTvm, wk::kXpu, 2, Bytes(64, 0x44)));
}

Bytes
TlpFuzzer::mutateBytes(const Bytes &parent)
{
    Bytes out = parent;
    if (out.empty())
        out.resize(1, 0);
    switch (rng_.uniform(0, 3)) {
      case 0: { // single bit flip
        const std::size_t i = rng_.uniform(0, out.size() - 1);
        out[i] ^= static_cast<std::uint8_t>(1u << rng_.uniform(0, 7));
        break;
      }
      case 1: { // byte overwrite
        const std::size_t i = rng_.uniform(0, out.size() - 1);
        out[i] = static_cast<std::uint8_t>(rng_.uniform(0, 255));
        break;
      }
      case 2: { // splice a segment from another population member
        const Bytes &donor =
            population_[rng_.uniform(0, population_.size() - 1)];
        if (!donor.empty()) {
            const std::size_t dst = rng_.uniform(0, out.size() - 1);
            const std::size_t src = rng_.uniform(0, donor.size() - 1);
            const std::size_t n = std::min(
                {static_cast<std::size_t>(rng_.uniform(1, 16)),
                 out.size() - dst, donor.size() - src});
            std::copy_n(donor.begin() + src, n, out.begin() + dst);
        }
        break;
      }
      default: { // truncate / extend (breaks the size invariant)
        out.resize(rng_.uniform(0, parent.size() + 16),
                   static_cast<std::uint8_t>(rng_.uniform(0, 255)));
        break;
      }
    }
    return out;
}

Tlp
TlpFuzzer::mutateFields(Tlp tlp)
{
    constexpr pcie::Bdf kIds[] = {
        wk::kRootComplex, wk::kTvm, wk::kRogueVm, wk::kPcieSc,
        wk::kXpu,         wk::kMaliciousDevice,
    };
    switch (rng_.uniform(0, 8)) {
      case 0:
        tlp.requester = kIds[rng_.uniform(0, std::size(kIds) - 1)];
        break;
      case 1:
        tlp.type = static_cast<pcie::TlpType>(rng_.uniform(0, 5));
        break;
      case 2:
        tlp.fmt = static_cast<pcie::TlpFmt>(rng_.uniform(0, 3));
        break;
      case 3: { // boundary-nudge the address around a window edge
        const auto &w = kWindows[rng_.uniform(0, std::size(kWindows) - 1)];
        constexpr std::int64_t kNudge[] = {-64, -4, -1, 0, 1, 4, 64};
        const std::int64_t off =
            kNudge[rng_.uniform(0, std::size(kNudge) - 1)];
        const Addr edge =
            rng_.uniform(0, 1) ? w.base : w.base + w.size;
        tlp.address = edge + static_cast<Addr>(off);
        break;
      }
      case 4: { // hostile length values
        constexpr std::uint32_t kLengths[] = {
            0,        1,       4,         64,
            4096,     1 << 20, pcie::kMaxTlpLengthBytes,
            pcie::kMaxTlpLengthBytes + 1, 0xffffffffu,
        };
        tlp.lengthBytes =
            kLengths[rng_.uniform(0, std::size(kLengths) - 1)];
        break;
      }
      case 5: { // payload resize, sometimes kept in sync
        const std::size_t n = rng_.uniform(0, 8) * 16;
        tlp.data.assign(n, 0xee);
        tlp.synthetic = false;
        if (rng_.uniform(0, 1))
            tlp.lengthBytes = static_cast<std::uint32_t>(n);
        break;
      }
      case 6:
        tlp.completer = kIds[rng_.uniform(0, std::size(kIds) - 1)];
        break;
      case 7:
        tlp.msgCode = static_cast<pcie::MsgCode>(rng_.uniform(0, 3));
        break;
      default:
        tlp.tag = static_cast<std::uint8_t>(rng_.uniform(0, 255));
        break;
    }
    return tlp;
}

Tlp
TlpFuzzer::minimize(Tlp tlp, std::uint64_t key)
{
    // The classification path here must mirror PacketFilter:
    // structural anomalies first, then the rule walk. Using a
    // table-only helper keeps minimization probes out of the
    // filter's counters.
    const backend::RuleTables tables =
        backend::defaultPolicy(wk::kTvm, wk::kXpu, wk::kPcieSc);
    auto verdictFor = [&](const Tlp &t) {
        const pcie::TlpAnomaly anomaly = t.headerAnomaly();
        if (anomaly == pcie::TlpAnomaly::None)
            return tables.classifyEx(t);
        backend::FilterVerdict v;
        v.action = backend::SecurityAction::A1_Disallow;
        switch (anomaly) {
          case pcie::TlpAnomaly::PayloadFmtMismatch:
            v.reason = backend::BlockReason::MalformedPayload;
            break;
          case pcie::TlpAnomaly::FmtForType:
            v.reason = backend::BlockReason::MalformedFmt;
            break;
          case pcie::TlpAnomaly::AddrWidthMismatch:
            v.reason = backend::BlockReason::MalformedAddress;
            break;
          default:
            v.reason = backend::BlockReason::MalformedLength;
            break;
        }
        return v;
    };
    auto accept = [&](const Tlp &candidate) {
        if (coverageKey(candidate, verdictFor(candidate)) != key)
            return false;
        tlp = candidate;
        return true;
    };

    // Strip ccAI metadata that rarely participates in the verdict.
    for (int step = 0; step < 7; ++step) {
        Tlp t = tlp;
        switch (step) {
          case 0: t.integrityTag.clear(); break;
          case 1: t.seqNo = 0; break;
          case 2: t.authTagId = 0; break;
          case 3: t.txChannel = 0; break;
          case 4: t.encrypted = false; break;
          case 5: t.ackRequired = false; break;
          default: t.tag = 0; break;
        }
        accept(t);
    }
    // Shrink the payload, alone and with the length field in tow.
    for (std::size_t target : {std::size_t{64}, std::size_t{4},
                               std::size_t{0}}) {
        if (tlp.data.size() <= target)
            continue;
        Tlp t = tlp;
        t.data.resize(target);
        if (!accept(t)) {
            t.lengthBytes = static_cast<std::uint32_t>(target);
            accept(t);
        }
    }
    return tlp;
}

void
TlpFuzzer::run(std::uint64_t iterations)
{
    ccai_assert(!population_.empty());
    for (std::uint64_t i = 0; i < iterations; ++i) {
        ++stats_.iterations;
        const Bytes &parent =
            population_[rng_.uniform(0, population_.size() - 1)];
        Tlp mutant;
        if (rng_.uniform(0, 1)) {
            // Byte-level path: may produce undecodable garbage,
            // which doubles as a codec-robustness probe.
            auto decoded = pcie::decodeTlp(mutateBytes(parent));
            if (!decoded) {
                ++stats_.decodeRejects;
                continue;
            }
            mutant = std::move(*decoded);
        } else {
            auto decoded = pcie::decodeTlp(parent);
            ccai_assert(decoded); // population holds valid encodings
            mutant = mutateFields(std::move(*decoded));
        }

        std::uint64_t key = 0;
        backend::FilterVerdict verdict;
        if (!execute(mutant, &key, &verdict))
            continue;

        const Tlp reduced = minimize(std::move(mutant), key);
        const Bytes encoded = pcie::encodeTlp(reduced);
        population_.push_back(encoded);
        const std::string name = std::string("fuzz-") +
                                 backend::blockReasonName(verdict.reason) +
                                 "-" + hex16(key);
        if (verdict.blocked() && corpusNames_.insert(name).second) {
            coverage_[key] = corpus_.size();
            corpus_.push_back(
                {name, verdict.action, verdict.reason, encoded});
        }
    }
}

std::size_t
TlpFuzzer::writeCorpus(const std::string &dir) const
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::size_t fresh = 0;
    for (const auto &entry : corpus_) {
        const fs::path path = fs::path(dir) / (entry.name + ".tlp");
        if (!fs::exists(path))
            ++fresh;
        std::ofstream out(path, std::ios::trunc);
        ccai_assert(out);
        out << entry.serialize();
    }
    return fresh;
}

} // namespace ccai::attack
