#ifndef GMREG_TESTS_REGULARIZER_PROPERTY_SUITE_H_
#define GMREG_TESTS_REGULARIZER_PROPERTY_SUITE_H_

/// The shared correctness contract every factory-registered regularizer is
/// held to (docs/REGULARIZERS.md). Each factory example config gets one
/// RegContractSpec declaring which optional guarantees the prior makes; the
/// parameterized suite in regularizer_property_suite.cc then runs the same
/// battery over all of them:
///
///   * penalty finite (and non-negative where declared);
///   * analytic gradient agrees with central finite differences of
///     Penalty, away from declared kinks;
///   * adaptive M-steps never increase the penalty on fixed weights
///     (where declared — MAP-EM priors with hyper-priors on the mixture
///     ascend a different objective and opt out);
///   * run-to-run bitwise determinism at 1, 2 and 4 threads;
///   * bitwise-identical results across thread budgets (where declared —
///     the GM prior's shard count follows the budget, so it guarantees
///     1e-12 closeness instead; the EP-GIG / dynprior family reduces with
///     ParallelChunkedSum and makes the stronger promise);
///   * checkpoint SaveState -> LoadState -> step is bit-exact, and
///     LoadState rejects garbage.
///
/// Registering a new kind in the factory without adding a spec here fails
/// the suite's coverage test — that is the gate that makes the next prior
/// (ROADMAP: GMRF mixture) a small follow-up instead of a bespoke test
/// effort.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace gmreg {
namespace testing {

/// gtest names each parameter after its raw object bytes, and those names
/// become the ctest test names. The spec therefore holds no pointer (a
/// std::string or std::vector member put heap addresses into the names, so
/// they changed on every build) and no padding byte: its bytes are a pure
/// function of the spec. The config string and the kink list live behind
/// config() and the fixed `kinks` array instead.
struct RegContractSpec {
  /// Room for the most kinks any spec declares.
  static constexpr int kMaxKinks = 7;

  /// |w| magnitudes where the penalty is non-smooth (0 = kink at zero);
  /// the FD gradient check samples weights away from the first num_kinks.
  std::array<double, kMaxKinks> kinks = {};
  /// Position of the factory config in RegularizerExampleConfigs().
  std::int16_t config_index = 0;
  /// Penalty(w) >= 0 for all w. True for the norm family and dynprior;
  /// false for density-based priors whose -log p(w) can go negative.
  bool penalty_nonnegative = true;
  /// AccumulateGradient and Penalty are bitwise identical across thread
  /// budgets, not just reproducible at a fixed budget.
  bool cross_budget_bitwise = true;
  /// Repeated adaptive updates on fixed weights never increase Penalty.
  bool monotone_penalty = false;
  /// Carries mutable training state (SaveState returns true).
  bool adaptive = false;
  /// SaveState is a pure function of the training trajectory. False when
  /// the record embeds wall-clock telemetry (the GM prior persists its
  /// E/M-step seconds); the suite then verifies resume bit-exactness
  /// behaviorally (weights + penalty) instead of comparing state strings.
  bool state_deterministic = true;
  /// Number of leading `kinks` entries in use.
  std::uint8_t num_kinks = 0;

  /// Factory config string (one of RegularizerExampleConfigs()).
  const std::string& config() const;
};

// No padding: every byte of the object belongs to a member.
static_assert(sizeof(RegContractSpec) ==
              RegContractSpec::kMaxKinks * sizeof(double) +
                  sizeof(std::int16_t) + 5 * sizeof(bool) +
                  sizeof(std::uint8_t));

/// One spec per factory example config, in RegularizerExampleConfigs()
/// order. The suite cross-checks this list against RegularizerKinds() and
/// RegularizerExampleConfigs(), so the three lists cannot drift apart
/// silently.
std::vector<RegContractSpec> AllRegContractSpecs();

}  // namespace testing
}  // namespace gmreg

#endif  // GMREG_TESTS_REGULARIZER_PROPERTY_SUITE_H_
