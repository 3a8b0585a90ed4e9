// Link-time interposition for the traced build: every symbol in
// entry_points.def is linked with -Wl,--wrap=<symbol>, so calls that cross
// object files land in __wrap_<symbol> here, which opens a span and calls
// __real_<symbol>. Member functions take `this` as their first parameter,
// the way the Itanium C++ ABI passes it. Nothing under src/ changes.
//
// Each WRAP_<id>(symbol) macro below defines the wrapper for one entry;
// expanding entry_points.def at the end instantiates all of them, so the
// mangled names are spelled only in that file.
#include <sys/stat.h>

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/bill_capper.hpp"
#include "core/budgeter.hpp"
#include "core/checkpoint.hpp"
#include "core/cost_model.hpp"
#include "core/fallback_allocator.hpp"
#include "core/fleet.hpp"
#include "core/market_coupler.hpp"
#include "core/market_feed.hpp"
#include "lp/arena_solver.hpp"
#include "lp/simplex.hpp"
#include "market/closed_loop.hpp"
#include "market/dcopf.hpp"
#include "trace.hpp"
#include "util/journal.hpp"

namespace {

using namespace billcap;
using perfbench::trace::Entry;
using perfbench::trace::Scope;

double file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
}

}  // namespace

// ---- core checkpoint and util journal ------------------------------------

#define WRAP_kSaveCheckpointRotated(symbol)                                    \
  void real_save_checkpoint_rotated(const std::string&,                        \
                                    const core::CheckpointState&,              \
                                    std::size_t) __asm__("__real_" symbol);    \
  void wrap_save_checkpoint_rotated(const std::string& path,                   \
                                    const core::CheckpointState& state,        \
                                    std::size_t keep) __asm__("__wrap_" symbol); \
  void wrap_save_checkpoint_rotated(const std::string& path,                   \
                                    const core::CheckpointState& state,        \
                                    std::size_t keep) {                        \
    Scope scope(Entry::kSaveCheckpointRotated);                                \
    real_save_checkpoint_rotated(path, state, keep);                           \
  }

#define WRAP_kLoadCheckpointFallback(symbol)                                   \
  core::CheckpointLoadReport real_load_checkpoint_fallback(                    \
      const std::string&, std::size_t, std::uint64_t) __asm__("__real_" symbol); \
  core::CheckpointLoadReport wrap_load_checkpoint_fallback(                    \
      const std::string& path, std::size_t keep, std::uint64_t digest)         \
      __asm__("__wrap_" symbol);                                               \
  core::CheckpointLoadReport wrap_load_checkpoint_fallback(                    \
      const std::string& path, std::size_t keep, std::uint64_t digest) {       \
    Scope scope(Entry::kLoadCheckpointFallback);                               \
    return real_load_checkpoint_fallback(path, keep, digest);                  \
  }

// Payload a = bytes on disk after the write.
#define WRAP_kJournalSaveAtomic(symbol)                                        \
  void real_journal_save_atomic(const util::Journal*, const std::string&)      \
      __asm__("__real_" symbol);                                               \
  void wrap_journal_save_atomic(const util::Journal* self,                     \
                                const std::string& path)                       \
      __asm__("__wrap_" symbol);                                               \
  void wrap_journal_save_atomic(const util::Journal* self,                     \
                                const std::string& path) {                     \
    Scope scope(Entry::kJournalSaveAtomic);                                    \
    real_journal_save_atomic(self, path);                                      \
    if (scope.active()) scope.span().a = file_bytes(path);                     \
  }

#define WRAP_kJournalLoad(symbol)                                              \
  util::Journal real_journal_load(const std::string&, std::string_view, int)   \
      __asm__("__real_" symbol);                                               \
  util::Journal wrap_journal_load(const std::string& path,                     \
                                  std::string_view magic, int version)         \
      __asm__("__wrap_" symbol);                                               \
  util::Journal wrap_journal_load(const std::string& path,                     \
                                  std::string_view magic, int version) {       \
    Scope scope(Entry::kJournalLoad);                                          \
    return real_journal_load(path, magic, version);                            \
  }

#define WRAP_kFsync(symbol)                                                    \
  extern "C" int real_fsync(int) __asm__("__real_" symbol);                    \
  extern "C" int wrap_fsync(int fd) __asm__("__wrap_" symbol);                 \
  extern "C" int wrap_fsync(int fd) {                                          \
    Scope scope(Entry::kFsync);                                                \
    return real_fsync(fd);                                                     \
  }

// ---- lp -------------------------------------------------------------------

// Payload from the solver's own counters, read through `this` before and
// after the call: a = pivots (primal + dual), b = branch-and-bound nodes,
// c = warm attempts that fell back to a cold rebuild (root and node),
// d = warm attempts (root and node).
#define WRAP_kArenaSolve(symbol)                                               \
  lp::Solution real_arena_solve(lp::ArenaSolver*, const lp::Problem&,          \
                                const lp::MilpOptions&) __asm__("__real_" symbol); \
  lp::Solution wrap_arena_solve(lp::ArenaSolver* self,                         \
                                const lp::Problem& problem,                    \
                                const lp::MilpOptions& options)                \
      __asm__("__wrap_" symbol);                                               \
  lp::Solution wrap_arena_solve(lp::ArenaSolver* self,                         \
                                const lp::Problem& problem,                    \
                                const lp::MilpOptions& options) {              \
    Scope scope(Entry::kArenaSolve);                                           \
    const lp::ArenaStats before = self->stats();                               \
    lp::Solution solution = real_arena_solve(self, problem, options);          \
    if (scope.active()) {                                                      \
      const lp::ArenaStats& after = self->stats();                             \
      auto& s = scope.span();                                                  \
      s.a = static_cast<double>(                                               \
          (after.primal_iterations - before.primal_iterations) +              \
          (after.dual_iterations - before.dual_iterations));                   \
      s.b = static_cast<double>(after.nodes_explored - before.nodes_explored); \
      s.c = static_cast<double>(                                               \
          (after.warm_fallbacks - before.warm_fallbacks) +                     \
          (after.node_cold_solves - before.node_cold_solves));                 \
      s.d = s.c + static_cast<double>(                                         \
                      (after.warm_solves - before.warm_solves) +               \
                      (after.node_warm_solves - before.node_warm_solves));     \
    }                                                                          \
    return solution;                                                           \
  }

// ---- market and the core coupler -----------------------------------------

#define WRAP_kSolveDcopf(symbol)                                               \
  market::DcOpfResult real_solve_dcopf(const market::Grid&,                    \
                                       std::span<const double>)                \
      __asm__("__real_" symbol);                                               \
  market::DcOpfResult wrap_solve_dcopf(const market::Grid& grid,               \
                                       std::span<const double> load)           \
      __asm__("__wrap_" symbol);                                               \
  market::DcOpfResult wrap_solve_dcopf(const market::Grid& grid,               \
                                       std::span<const double> load) {         \
    Scope scope(Entry::kSolveDcopf);                                           \
    return real_solve_dcopf(grid, load);                                       \
  }

#define WRAP_kSolveLp(symbol)                                                  \
  lp::Solution real_solve_lp(const lp::Problem&, const lp::SimplexOptions&)    \
      __asm__("__real_" symbol);                                               \
  lp::Solution wrap_solve_lp(const lp::Problem& problem,                       \
                             const lp::SimplexOptions& options)                \
      __asm__("__wrap_" symbol);                                               \
  lp::Solution wrap_solve_lp(const lp::Problem& problem,                       \
                             const lp::SimplexOptions& options) {              \
    Scope scope(Entry::kSolveLp);                                              \
    return real_solve_lp(problem, options);                                    \
  }

#define WRAP_kDeriveLocalPolicies(symbol)                                      \
  std::vector<market::PricingPolicy> real_derive_local_policies(               \
      const market::CoupledMarket*, std::span<const double>,                   \
      std::span<const double>, std::span<const double>,                        \
      std::span<const double>, const market::ClosedLoopOptions&,               \
      const market::CoupledHourFaults*) __asm__("__real_" symbol);             \
  std::vector<market::PricingPolicy> wrap_derive_local_policies(               \
      const market::CoupledMarket* self, std::span<const double> power,        \
      std::span<const double> background, std::span<const double> base,       \
      std::span<const double> cap, const market::ClosedLoopOptions& options,   \
      const market::CoupledHourFaults* faults) __asm__("__wrap_" symbol);      \
  std::vector<market::PricingPolicy> wrap_derive_local_policies(               \
      const market::CoupledMarket* self, std::span<const double> power,        \
      std::span<const double> background, std::span<const double> base,       \
      std::span<const double> cap, const market::ClosedLoopOptions& options,   \
      const market::CoupledHourFaults* faults) {                               \
    Scope scope(Entry::kDeriveLocalPolicies);                                  \
    return real_derive_local_policies(self, power, background, base, cap,      \
                                      options, faults);                        \
  }

// Payload a = fixed-point iterations, b = 1 when the hour planned open-loop.
#define WRAP_kPlanHour(symbol)                                                 \
  core::MarketCoupler::HourPlan real_plan_hour(                                \
      core::MarketCoupler*, const core::MarketCoupler::HourInputs&,            \
      const core::BillCapper&) __asm__("__real_" symbol);                      \
  core::MarketCoupler::HourPlan wrap_plan_hour(                                \
      core::MarketCoupler* self, const core::MarketCoupler::HourInputs& in,    \
      const core::BillCapper& capper) __asm__("__wrap_" symbol);               \
  core::MarketCoupler::HourPlan wrap_plan_hour(                                \
      core::MarketCoupler* self, const core::MarketCoupler::HourInputs& in,    \
      const core::BillCapper& capper) {                                        \
    Scope scope(Entry::kPlanHour);                                             \
    core::MarketCoupler::HourPlan plan = real_plan_hour(self, in, capper);     \
    if (scope.active()) {                                                      \
      scope.span().a = static_cast<double>(plan.iterations);                   \
      scope.span().b = plan.fallback ? 1.0 : 0.0;                              \
    }                                                                          \
    return plan;                                                               \
  }

// ---- core hour pipeline ---------------------------------------------------

// Payload a = 1 when the outcome came off the degradation ladder.
#define WRAP_kDecide(symbol)                                                   \
  core::CappingOutcome real_decide(const core::BillCapper*, double, double,    \
                                   std::span<const double>, double)            \
      __asm__("__real_" symbol);                                               \
  core::CappingOutcome wrap_decide(const core::BillCapper* self, double p,     \
                                   double o, std::span<const double> d,        \
                                   double budget) __asm__("__wrap_" symbol);   \
  core::CappingOutcome wrap_decide(const core::BillCapper* self, double p,     \
                                   double o, std::span<const double> d,        \
                                   double budget) {                            \
    Scope scope(Entry::kDecide);                                               \
    core::CappingOutcome out = real_decide(self, p, o, d, budget);             \
    if (scope.active()) scope.span().a = out.degraded ? 1.0 : 0.0;             \
    return out;                                                                \
  }

#define WRAP_kDecideWithOptions(symbol)                                        \
  core::CappingOutcome real_decide_opts(                                       \
      const core::BillCapper*, double, double, std::span<const double>,        \
      double, const core::DecideOptions&) __asm__("__real_" symbol);           \
  core::CappingOutcome wrap_decide_opts(                                       \
      const core::BillCapper* self, double p, double o,                        \
      std::span<const double> d, double budget,                                \
      const core::DecideOptions& overrides) __asm__("__wrap_" symbol);         \
  core::CappingOutcome wrap_decide_opts(                                       \
      const core::BillCapper* self, double p, double o,                        \
      std::span<const double> d, double budget,                                \
      const core::DecideOptions& overrides) {                                  \
    Scope scope(Entry::kDecideWithOptions);                                    \
    core::CappingOutcome out =                                                 \
        real_decide_opts(self, p, o, d, budget, overrides);                    \
    if (scope.active()) scope.span().a = out.degraded ? 1.0 : 0.0;             \
    return out;                                                                \
  }

#define WRAP_kFallbackAllocate(symbol)                                         \
  core::AllocationResult real_fallback_allocate(                               \
      std::span<const core::SiteModel>, const core::FallbackRequest&)          \
      __asm__("__real_" symbol);                                               \
  core::AllocationResult wrap_fallback_allocate(                               \
      std::span<const core::SiteModel> models,                                 \
      const core::FallbackRequest& request) __asm__("__wrap_" symbol);         \
  core::AllocationResult wrap_fallback_allocate(                               \
      std::span<const core::SiteModel> models,                                 \
      const core::FallbackRequest& request) {                                  \
    Scope scope(Entry::kFallbackAllocate);                                     \
    return real_fallback_allocate(models, request);                            \
  }

#define WRAP_kHourlyBudget(symbol)                                             \
  double real_hourly_budget(const core::Budgeter*, std::size_t, double)        \
      __asm__("__real_" symbol);                                               \
  double wrap_hourly_budget(const core::Budgeter* self, std::size_t hour,      \
                            double spent) __asm__("__wrap_" symbol);           \
  double wrap_hourly_budget(const core::Budgeter* self, std::size_t hour,      \
                            double spent) {                                    \
    Scope scope(Entry::kHourlyBudget);                                         \
    return real_hourly_budget(self, hour, spent);                              \
  }

#define WRAP_kFeedPoll(symbol)                                                 \
  core::FeedObservation real_feed_poll(core::MarketFeed*, std::size_t)         \
      __asm__("__real_" symbol);                                               \
  core::FeedObservation wrap_feed_poll(core::MarketFeed* self,                 \
                                       std::size_t hour)                       \
      __asm__("__wrap_" symbol);                                               \
  core::FeedObservation wrap_feed_poll(core::MarketFeed* self,                 \
                                       std::size_t hour) {                     \
    Scope scope(Entry::kFeedPoll);                                             \
    return real_feed_poll(self, hour);                                         \
  }

#define WRAP_kEvaluateAllocation(symbol)                                       \
  core::GroundTruth real_evaluate_allocation(                                  \
      const std::vector<datacenter::DataCenter>&,                              \
      const std::vector<market::PricingPolicy>&, std::span<const double>,      \
      std::span<const double>) __asm__("__real_" symbol);                      \
  core::GroundTruth wrap_evaluate_allocation(                                  \
      const std::vector<datacenter::DataCenter>& sites,                        \
      const std::vector<market::PricingPolicy>& policies,                      \
      std::span<const double> demand, std::span<const double> lambda)          \
      __asm__("__wrap_" symbol);                                               \
  core::GroundTruth wrap_evaluate_allocation(                                  \
      const std::vector<datacenter::DataCenter>& sites,                        \
      const std::vector<market::PricingPolicy>& policies,                      \
      std::span<const double> demand, std::span<const double> lambda) {        \
    Scope scope(Entry::kEvaluateAllocation);                                   \
    return real_evaluate_allocation(sites, policies, demand, lambda);          \
  }

// ---- core fleet -----------------------------------------------------------

// Payload a = degraded chunks, b = quarantined chunks.
#define WRAP_kDecideHour(symbol)                                               \
  core::FleetHourOutcome real_decide_hour(                                     \
      core::FleetController*, std::size_t, double, double,                     \
      std::span<const double>, double, const core::FaultInjector*)             \
      __asm__("__real_" symbol);                                               \
  core::FleetHourOutcome wrap_decide_hour(                                     \
      core::FleetController* self, std::size_t hour, double p, double o,       \
      std::span<const double> d, double budget,                                \
      const core::FaultInjector* injector) __asm__("__wrap_" symbol);          \
  core::FleetHourOutcome wrap_decide_hour(                                     \
      core::FleetController* self, std::size_t hour, double p, double o,       \
      std::span<const double> d, double budget,                                \
      const core::FaultInjector* injector) {                                   \
    Scope scope(Entry::kDecideHour);                                           \
    core::FleetHourOutcome out =                                               \
        real_decide_hour(self, hour, p, o, d, budget, injector);               \
    if (scope.active()) {                                                      \
      scope.span().a = static_cast<double>(out.degraded_chunks);               \
      scope.span().b = static_cast<double>(out.quarantined_chunks);            \
    }                                                                          \
    return out;                                                                \
  }

#define ENTRY(id, symbol) WRAP_##id(symbol)
#include "entry_points.def"
#undef ENTRY
