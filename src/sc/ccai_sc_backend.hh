/**
 * @file
 * The ccAI protection backend: today's interposed PCIe-SC design
 * behind the backend::ProtectionBackend API. This is the only
 * translation unit above the sc/ library that is allowed to know
 * the interposer exists — Platform builds the PCIe-SC through
 * buildInterposer() and everything else programs against the
 * backend interface.
 */

#ifndef CCAI_SC_CCAI_SC_BACKEND_HH
#define CCAI_SC_CCAI_SC_BACKEND_HH

#include <memory>
#include <string>

#include "backend/protection_backend.hh"
#include "sc/pcie_sc.hh"

namespace ccai::backend
{

/**
 * Interposed PCIe-SC backend. Owns the PcieSc device model once
 * buildInterposer() runs; until then it behaves as a detached
 * bookkeeping backend (conformance tests use it that way).
 */
class CcaiScBackend : public ProtectionBackend
{
  public:
    CcaiScBackend() : ProtectionBackend(costModelFor(Kind::CcaiSc)) {}

    Kind kind() const override { return Kind::CcaiSc; }

    /**
     * Construct the PCIe-SC interposer exactly as the platform
     * assembled it before this API existed (same name, same config,
     * same construction point) so secure-topology replays stay
     * bit-identical. Returns the device for link wiring; ownership
     * stays with the backend.
     */
    sc::PcieSc *buildInterposer(sim::System &sys, std::string name,
                                const sc::PcieScConfig &config);

    /** The live interposer (nullptr before buildInterposer). */
    sc::PcieSc *interposer() { return sc_.get(); }

    /**
     * Validate and record the policy, then push it into the live
     * PCIe-SC's rule tables.
     */
    bool installPolicy(const backend::RuleTables &tables) override;

    void endSession(std::uint16_t tenantRaw) override;

  private:
    std::unique_ptr<sc::PcieSc> sc_;
};

} // namespace ccai::backend

#endif // CCAI_SC_CCAI_SC_BACKEND_HH
