// BL044 fixture: --warm-solver has a row no code reads (a dead flag the
// parser accepts and the run ignores), and --bugdet is read but declared
// in no table (the read throws at run time).
#include "util/cli.hpp"

namespace {

using enum billcap::util::FlagKind;

constexpr billcap::util::Flag kFlags[] = {
    {"budget", kNumber, "monthly budget, $", "1.5e6"},
    {"warm-solver", kSwitch, "reuse the previous hour's basis"},
};

}  // namespace

double budget(const billcap::util::CliArgs& args) {
  return args.has("bugdet") ? 0.0 : args.get_number("budget");
}
