#include "sc/ccai_sc_backend.hh"

namespace ccai::backend
{

sc::PcieSc *
CcaiScBackend::buildInterposer(sim::System &sys, std::string name,
                               const sc::PcieScConfig &config)
{
    sc_ = std::make_unique<sc::PcieSc>(sys, std::move(name), config);
    return sc_.get();
}

bool
CcaiScBackend::installPolicy(const backend::RuleTables &tables)
{
    if (!ProtectionBackend::installPolicy(tables))
        return false;
    if (sc_)
        sc_->installPolicy(tables);
    return true;
}

void
CcaiScBackend::endSession(std::uint16_t tenantRaw)
{
    ProtectionBackend::endSession(tenantRaw);
    if (sc_ && sc_->sessionEstablished())
        sc_->endTenant(pcie::Bdf::fromRaw(tenantRaw), false);
}

std::unique_ptr<ProtectionBackend>
makeBackend(Kind kind)
{
    switch (kind) {
      case Kind::CcaiSc:
        return std::make_unique<CcaiScBackend>();
      case Kind::H100Cc:
        return std::make_unique<H100CcBackend>();
      case Kind::Acai:
        return std::make_unique<AcaiBackend>();
    }
    return nullptr;
}

} // namespace ccai::backend
