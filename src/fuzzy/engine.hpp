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
/// rules, then call `seal()` once — it validates the structure and lets
/// every subsequent inference skip the re-check (unsealed engines validate
/// on each inference instead). The engine is immutable during inference and
/// therefore safe to share across threads for concurrent `infer()` calls;
/// seal before sharing.
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

  /// Validates once and caches the result: sealed engines skip the
  /// per-inference checkValid() (an O(rules^2 + term-product) scan that
  /// otherwise dominates small rule bases), and remember piecewiseLinear().
  /// An engine that samples (piecewiseLinear() false) also gets its
  /// OutputTables here, so its aggregated curve is flat loops over
  /// contiguous doubles instead of a per-sample lambda with nested apply()
  /// dispatch; the tables reproduce degree() bit-exactly. Either way sealed
  /// inference is bit-identical to the unsealed path. Any mutation
  /// (addInput, setOutput, addRule) unseals and drops the tables. Seal
  /// before sharing the engine across threads; the sealed state is written
  /// here only.
  /// \throws std::logic_error when the engine is structurally invalid.
  void seal();
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }

  /// True when the aggregated output curve is piecewise linear — Min
  /// implication, Max aggregation and every output term reporting its
  /// vertices (Triangular, Trapezoidal) — so inference defuzzifies it in
  /// closed form over its breakpoints (PiecewiseEnvelope) and ignores
  /// `resolution`. Any other engine samples the curve on `resolution`
  /// points: Prod or Lukasiewicz implication, probabilistic or bounded-sum
  /// aggregation, or a smooth output term (shapes.hpp).
  [[nodiscard]] bool piecewiseLinear() const;

  /// Runs one inference; \p crisp_inputs are clamped to each variable's
  /// universe. \throws std::invalid_argument on arity mismatch.
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
  /// Piecewise-linear engines, sealed or not, run the closed-form kernel.
  /// Sampling engines iterate the precomputed sample-grid tables when
  /// sealed and evaluate the curve through the term objects otherwise; same
  /// grid, same apply() order, so the two are bit-identical.
  [[nodiscard]] double aggregateAndDefuzzify(
      const std::vector<double>& strengths, InferenceScratch& scratch) const;

  /// checkValid() unless a prior seal() vouches for the current structure.
  void ensureValid() const;

  /// Drops the cached validation and the precomputed tables — every
  /// mutating entry point funnels through here.
  void unseal();

  /// Arity check + defuzzified output via the scratch buffers (shared core
  /// of both infer() overloads).
  [[nodiscard]] double inferInto(std::span<const double> crisp_inputs,
                                 InferenceScratch& scratch) const;

  /// Precomputed sample-grid tables of a sealed engine that samples (empty
  /// while unsealed and for piecewise-linear engines, which never sample).
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
