#pragma once
/// \file engine.hpp
/// The Mamdani fuzzy logic controller: fuzzifier, inference engine, fuzzy
/// rule base and defuzzifier — the four FLC elements of the paper's Fig. 2.

#include <span>
#include <string>
#include <vector>

#include "fuzzy/defuzzify.hpp"
#include "fuzzy/norms.hpp"
#include "fuzzy/rule.hpp"
#include "fuzzy/variable.hpp"

namespace facs::fuzzy {

/// Largest accepted EngineConfig::resolution: far above any grid in use
/// (the finest samples 4001 points), small enough to bound a grid's memory.
inline constexpr int kMaxResolution = 1'000'000;

/// Operator configuration of a Mamdani controller.
struct EngineConfig {
  TNorm conjunction = TNorm::Minimum;    ///< Combines antecedent degrees.
  TNorm implication = TNorm::Minimum;    ///< Applies firing strength to the consequent (clip).
  SNorm aggregation = SNorm::Maximum;    ///< Merges rule outputs.
  Defuzzifier defuzzifier = Defuzzifier::Centroid;
  /// Output-universe samples for defuzzification. Only engines that sample
  /// use it; see MamdaniEngine::piecewiseLinear(). In [2, kMaxResolution].
  int resolution = 1001;
};

/// Reusable working buffers for the allocation-free inference path. One
/// scratch serves any number of engines (each inference resizes the buffers
/// to its own shape); reusing it across calls keeps the steady state free
/// of heap traffic on the per-decision path.
struct InferenceScratch {
  std::vector<FuzzyVector> fuzzified;
  std::vector<double> strengths;
  std::vector<double> term_activation;
  std::vector<double> curve_mu;  ///< Aggregated curve on the sealed grid.
  DefuzzScratch defuzz;
  PiecewiseEnvelope piecewise;   ///< Breakpoint buffers of the exact path.
};

/// Per-rule diagnostic from a traced inference.
struct RuleActivation {
  std::size_t rule_index = 0;
  double firing_strength = 0.0;  ///< After conjunction and weighting.
};

/// Full diagnostic of one inference step (for tests, examples and the
/// operator dashboard example application).
struct InferenceTrace {
  std::vector<double> inputs;               ///< Crisp inputs (clamped).
  std::vector<FuzzyVector> fuzzified;       ///< Degrees per input variable.
  std::vector<RuleActivation> activations;  ///< Rules with strength > 0.
  double crisp_output = 0.0;
  std::size_t winning_output_term = 0;      ///< Output term closest to crisp value.
};

/// A complete single-output Mamdani controller.
///
/// Construction order: add input variables, set the output variable, add
/// rules, then call `seal()` once — it validates the structure, and only a
/// sealed engine infers. The engine is immutable during inference and
/// therefore safe to share across threads for concurrent `infer()` calls.
class MamdaniEngine {
 public:
  explicit MamdaniEngine(std::string name, EngineConfig config = {});

  /// \name Construction
  ///@{
  /// Appends an input variable; returns its roster index.
  std::size_t addInput(LinguisticVariable variable);
  void setOutput(LinguisticVariable variable);
  /// Adds a rule by term names; wildcard entries are "*" or "any".
  void addRule(const std::vector<std::string>& antecedent_terms,
               const std::string& consequent_term, double weight = 1.0);
  void addRule(Rule rule);
  ///@}

  /// \name Introspection
  ///@{
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t inputCount() const noexcept {
    return inputs_.size();
  }
  [[nodiscard]] const LinguisticVariable& input(std::size_t i) const {
    return inputs_.at(i);
  }
  [[nodiscard]] const std::vector<LinguisticVariable>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const LinguisticVariable& output() const;
  [[nodiscard]] const RuleBase& rules() const noexcept { return rules_; }
  ///@}

  /// Structural validation: output present, >= 1 rule, rule base coherent.
  /// \throws std::logic_error describing the first defect found.
  void checkValid() const;

  /// Validates once (checkValid(), an O(rules^2 + term-product) scan) and
  /// makes the engine ready to infer: it remembers piecewiseLinear(), and an
  /// engine that samples (piecewiseLinear() false) gets its OutputTables,
  /// the output terms tabulated on the `resolution`-point grid. Any
  /// mutation (addInput, setOutput, addRule) unseals and drops the tables.
  /// The sealed state is written here only.
  /// \throws std::logic_error when the engine is structurally invalid.
  void seal();
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }

  /// True when the aggregated output curve is piecewise linear — Min
  /// implication and Max aggregation of the piecewise-linear terms — so
  /// inference defuzzifies it in closed form over its breakpoints
  /// (PiecewiseEnvelope) and ignores `resolution`. Any other engine (Prod
  /// or Lukasiewicz implication, probabilistic or bounded-sum aggregation)
  /// samples the curve on `resolution` points.
  [[nodiscard]] bool piecewiseLinear() const noexcept;

  /// Runs one inference; \p crisp_inputs are clamped to each variable's
  /// universe. \throws std::logic_error when the engine is not sealed,
  /// std::invalid_argument on arity mismatch.
  [[nodiscard]] double infer(std::span<const double> crisp_inputs) const;

  /// As infer(), reusing \p scratch for every intermediate buffer: no
  /// allocation once the scratch has warmed up, and bit-identical to infer()
  /// (same arithmetic in the same order).
  [[nodiscard]] double infer(std::span<const double> crisp_inputs,
                             InferenceScratch& scratch) const;

  /// As infer(), returning full diagnostics.
  [[nodiscard]] InferenceTrace inferTraced(
      std::span<const double> crisp_inputs) const;

 private:
  /// Firing strength of each rule for the fuzzified inputs, into
  /// \p strengths (cleared first). The single implementation both the
  /// traced and the scratch path run — one arithmetic, no drift.
  void fireInto(const std::vector<FuzzyVector>& fuzzified,
                std::vector<double>& strengths) const;

  /// Per-term aggregation of \p strengths into scratch.term_activation
  /// (resized and zeroed here) followed by defuzzification of the
  /// aggregated curve — the shared back half of every inference.
  /// Piecewise-linear engines run the closed-form kernel; sampling engines
  /// fold the sealed sample-grid tables.
  [[nodiscard]] double aggregateAndDefuzzify(
      const std::vector<double>& strengths, InferenceScratch& scratch) const;

  /// The entry check of every inference.
  /// \throws std::logic_error when the engine is not sealed,
  ///         std::invalid_argument when \p crisp_inputs has the wrong arity.
  void checkCall(std::span<const double> crisp_inputs) const;

  /// Drops the cached validation and the precomputed tables — every
  /// mutating entry point funnels through here.
  void unseal();

  /// Entry check + defuzzified output via the scratch buffers (shared core
  /// of both infer() overloads).
  [[nodiscard]] double inferInto(std::span<const double> crisp_inputs,
                                 InferenceScratch& scratch) const;

  /// Sample-grid tables of a sealed engine that samples (empty while
  /// unsealed and for piecewise-linear engines, which never sample).
  /// The grid and weights depend only on (universe, resolution); term_mu is
  /// term-major — term t's row is [t * x.size(), (t+1) * x.size()) — so
  /// the aggregation inner loop walks contiguous doubles.
  struct OutputTables {
    std::vector<double> x;        ///< Sample grid over the output universe.
    std::vector<double> half_dx;  ///< Trapezoid weights, 0.5 * segment dx.
    std::vector<double> term_mu;  ///< termCount x resolution, term-major.
  };

  std::string name_;
  EngineConfig config_;
  std::vector<LinguisticVariable> inputs_;
  std::vector<LinguisticVariable> output_;  ///< 0 or 1 elements.
  RuleBase rules_;
  OutputTables tables_;
  bool sealed_ = false;
  bool piecewise_ = false;  ///< piecewiseLinear(), cached by seal().
};

}  // namespace facs::fuzzy
