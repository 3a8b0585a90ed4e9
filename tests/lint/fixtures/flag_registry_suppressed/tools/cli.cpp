// BL044 suppressed fixture: a row kept unread on purpose and a read of a
// name another build declares, each sanctioned with a rationale.
#include "util/cli.hpp"

namespace {

using enum billcap::util::FlagKind;

constexpr billcap::util::Flag kFlags[] = {
    {"budget", kNumber, "monthly budget, $", "1.5e6"},
    // billcap-lint: allow(flag-registry): accepted for one release so old scripts keep parsing
    {"legacy-mode", kSwitch, "no effect"},
};

}  // namespace

double budget(const billcap::util::CliArgs& args) {
  // billcap-lint: allow(flag-registry): declared by the plugin table linked in at build time
  return args.has("plugin") ? 0.0 : args.get_number("budget");
}
