// BL044 clean fixture: the table lives in one file and is read in
// another; rows may spell the kind fully qualified.
#pragma once

#include "util/cli.hpp"

inline constexpr billcap::util::Flag kFlags[] = {
    {"budget", billcap::util::FlagKind::kNumber, "monthly budget, $", "1.5e6"},
    {"no-cap", billcap::util::FlagKind::kSwitch, "do not enforce the budget"},
};
