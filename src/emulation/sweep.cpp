#include "sweep.hpp"

#include "common/hash.hpp"

namespace flex::emulation {

std::uint64_t
HashEmulationReport(const EmulationReport& report)
{
  Fnv1a hash;
  hash.AddU64(static_cast<std::uint64_t>(report.series.size()));
  for (const EmulationSample& sample : report.series) {
    hash.AddDouble(sample.t_seconds);
    for (const double mw : sample.ups_mw)
      hash.AddDouble(mw);
    hash.AddDouble(sample.total_rack_mw);
    hash.AddI64(sample.racks_off);
    hash.AddI64(sample.racks_capped);
  }
  hash.AddDouble(report.time_to_safe_seconds);
  hash.AddDouble(report.worst_overload_fraction);
  hash.AddI64(report.sr_shutdown_peak);
  hash.AddI64(report.capable_capped_peak);
  hash.AddI64(report.noncap_acted);
  hash.AddI64(report.throttle_commands);
  hash.AddI64(report.shutdown_commands);
  return hash.value();
}

}  // namespace flex::emulation
