// BL044 clean fixture: every read has a row and every row is read.
#include "flags.hpp"
#include "util/cli.hpp"

double budget(const billcap::util::CliArgs& args) {
  return args.get_switch("no-cap") ? 0.0 : args.get_number("budget");
}
