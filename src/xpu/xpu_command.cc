#include "xpu_command.hh"

#include "common/bytes_util.hh"

namespace ccai::xpu
{

Bytes
XpuCommand::serialize() const
{
    Bytes out(kXpuCommandBytes, 0);
    out[0] = static_cast<std::uint8_t>(type);
    out[1] = synthetic ? 1 : 0;
    storeLe64(out.data() + 8, id);
    storeLe64(out.data() + 16, duration);
    storeLe64(out.data() + 24, hostAddr);
    storeLe64(out.data() + 32, devAddr);
    storeLe64(out.data() + 40, length);
    out[48] = static_cast<std::uint8_t>(msiTarget >> 8);
    out[49] = static_cast<std::uint8_t>(msiTarget);
    storeLe32(out.data() + 52, burstBytes);
    return out;
}

std::optional<XpuCommand>
XpuCommand::deserialize(const Bytes &raw)
{
    if (raw.size() != kXpuCommandBytes ||
        raw[0] > static_cast<std::uint8_t>(XpuCmdType::MemSet))
        return std::nullopt;
    XpuCommand cmd;
    cmd.type = static_cast<XpuCmdType>(raw[0]);
    cmd.synthetic = raw[1] != 0;
    cmd.id = loadLe64(raw.data() + 8);
    cmd.duration = loadLe64(raw.data() + 16);
    cmd.hostAddr = loadLe64(raw.data() + 24);
    cmd.devAddr = loadLe64(raw.data() + 32);
    cmd.length = loadLe64(raw.data() + 40);
    cmd.msiTarget =
        static_cast<std::uint16_t>((raw[48] << 8) | raw[49]);
    cmd.burstBytes = loadLe32(raw.data() + 52);
    return cmd;
}

} // namespace ccai::xpu
