#include "core/checkpoint_v1.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "core/checkpoint_keys.hpp"
#include "util/journal.hpp"

namespace billcap::core {

namespace {

void put_u(std::ostringstream& os, std::uint64_t v) { os << v << ' '; }
void put_d(std::ostringstream& os, double v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  os << buf << ' ';
}

/// One HourRecord as the v1 text token record the loader's decode_hour
/// reads back.
std::string encode_hour(const HourRecord& rec) {
  std::ostringstream os;
  put_u(os, rec.hour);
  put_u(os, static_cast<std::uint64_t>(rec.mode));
  put_u(os, static_cast<std::uint64_t>(rec.failure));
  put_u(os, rec.degraded ? 1 : 0);
  put_u(os, rec.used_incumbent ? 1 : 0);
  put_u(os, rec.used_heuristic ? 1 : 0);
  put_u(os, rec.stale_prices ? 1 : 0);
  put_u(os, static_cast<std::uint64_t>(rec.feed_attempts));
  put_u(os, rec.feed_recovered ? 1 : 0);
  put_u(os, rec.sites_down);
  put_u(os, static_cast<std::uint64_t>(rec.nodes));
  put_d(os, rec.arrivals);
  put_d(os, rec.premium_arrivals);
  put_d(os, rec.ordinary_arrivals);
  put_d(os, rec.served_premium);
  put_d(os, rec.served_ordinary);
  put_d(os, rec.hourly_budget);
  put_d(os, rec.cost);
  put_d(os, rec.predicted_cost);
  // The retired wall-time word: writers of this format stored the hour's
  // measured solve time here, and the loader ignores it.
  put_d(os, 2.5);
  put_u(os, rec.site_lambda.size());
  for (double v : rec.site_lambda) put_d(os, v);
  put_u(os, rec.site_power_mw.size());
  for (double v : rec.site_power_mw) put_d(os, v);
  // Coupler fields: appended after every original v1 field, so records
  // written before the coupler existed decode with the (zero) defaults.
  put_u(os, rec.coupler_iterations);
  put_u(os, rec.coupler_converged ? 1 : 0);
  put_u(os, rec.coupler_fallback ? 1 : 0);
  put_u(os, rec.coupler_rung);
  return os.str();
}

}  // namespace

void save_checkpoint_v1(const std::string& path, const CheckpointState& state) {
  // A v1 head carries every field a v2 head does, in the same order, so
  // take them from the production head writer: commit the state without
  // its hours to a temporary head (a commit with no records writes no hour
  // log), then copy every key but the ones that count and name the log.
  CheckpointState head_only = state;
  head_only.partial.hours.clear();
  head_only.logged_hours = 0;
  const std::string temp_head = path + ".v2head";
  save_checkpoint_rotated(temp_head, head_only, 1);
  const std::string v2 = util::Journal::load(temp_head, keys::kCheckpointMagic,
                                             keys::kCheckpointVersion)
                             .serialize();
  std::remove(temp_head.c_str());

  util::Journal journal(keys::kCheckpointMagic, keys::kCheckpointInlineVersion);
  std::istringstream lines(v2);
  std::string line;
  std::getline(lines, line);  // "<magic> v<version>"
  while (std::getline(lines, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;  // the checksum line
    const std::string key = line.substr(0, eq);
    if (key == keys::kHours || key == keys::kHourLog ||
        key == keys::kHourLogChain)
      continue;
    journal.set(key, line.substr(eq + 1));
  }
  const std::vector<HourRecord>& hours = state.partial.hours;
  journal.set_size(keys::kHours, hours.size());
  for (std::size_t i = 0; i < hours.size(); ++i)
    journal.set(keys::hour(i), encode_hour(hours[i]));
  journal.save_atomic(path);
}

}  // namespace billcap::core
