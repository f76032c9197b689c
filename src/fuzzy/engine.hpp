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

/// Operator configuration of a Mamdani controller. Every combination
/// infers exactly, without sampling (see PiecewiseEnvelope).
struct EngineConfig {
  TNorm conjunction = TNorm::Minimum;    ///< Combines antecedent degrees.
  TNorm implication = TNorm::Minimum;    ///< Applies firing strength to the consequent (clip).
  SNorm aggregation = SNorm::Maximum;    ///< Merges rule outputs.
  Defuzzifier defuzzifier = Defuzzifier::Centroid;
};

/// Reusable working buffers for the allocation-free inference path. One
/// scratch serves any number of engines (each inference resizes the buffers
/// to its own shape); reusing it across calls keeps the steady state free
/// of heap traffic on the per-decision path.
struct InferenceScratch {
  std::vector<FuzzyVector> fuzzified;
  std::vector<double> strengths;
  std::vector<double> term_activation;
  PiecewiseEnvelope piecewise;   ///< The aggregated output curve.
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
///
/// Inference is exact for every operator configuration: the aggregated
/// output curve is built from the output terms' corners and defuzzified in
/// closed form (PiecewiseEnvelope), so no engine samples its universe.
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
  /// makes the engine ready to infer. Any mutation (addInput, setOutput,
  /// addRule) unseals.
  /// \throws std::logic_error when the engine is structurally invalid.
  void seal();
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }

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
  /// (resized and zeroed here) followed by exact defuzzification of the
  /// aggregated curve — the shared back half of every inference.
  [[nodiscard]] double aggregateAndDefuzzify(
      const std::vector<double>& strengths, InferenceScratch& scratch) const;

  /// The entry check of every inference.
  /// \throws std::logic_error when the engine is not sealed,
  ///         std::invalid_argument when \p crisp_inputs has the wrong arity.
  void checkCall(std::span<const double> crisp_inputs) const;

  std::string name_;
  EngineConfig config_;
  std::vector<LinguisticVariable> inputs_;
  std::vector<LinguisticVariable> output_;  ///< 0 or 1 elements.
  RuleBase rules_;
  bool sealed_ = false;
};

}  // namespace facs::fuzzy
