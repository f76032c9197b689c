#include "fuzzy/engine.hpp"

#include <sstream>
#include <stdexcept>

namespace facs::fuzzy {

MamdaniEngine::MamdaniEngine(std::string name, EngineConfig config)
    : name_{std::move(name)}, config_{config} {
  if (name_.empty()) {
    throw std::invalid_argument("engine name must not be empty");
  }
}

std::size_t MamdaniEngine::addInput(LinguisticVariable variable) {
  sealed_ = false;
  inputs_.push_back(std::move(variable));
  return inputs_.size() - 1;
}

void MamdaniEngine::setOutput(LinguisticVariable variable) {
  sealed_ = false;
  output_.clear();
  output_.push_back(std::move(variable));
}

void MamdaniEngine::addRule(const std::vector<std::string>& antecedent_terms,
                            const std::string& consequent_term, double weight) {
  sealed_ = false;
  rules_.add(inputs_, output(), antecedent_terms, consequent_term, weight);
}

void MamdaniEngine::addRule(Rule rule) {
  sealed_ = false;
  rules_.add(std::move(rule));
}

const LinguisticVariable& MamdaniEngine::output() const {
  if (output_.empty()) {
    throw std::logic_error("engine '" + name_ + "' has no output variable");
  }
  return output_.front();
}

void MamdaniEngine::checkValid() const {
  if (inputs_.empty()) {
    throw std::logic_error("engine '" + name_ + "' has no input variables");
  }
  for (const auto& v : inputs_) {
    if (v.termCount() == 0) {
      throw std::logic_error("engine '" + name_ + "': input variable '" +
                             v.name() + "' has no terms");
    }
  }
  const LinguisticVariable& out = output();  // throws if missing
  if (out.termCount() == 0) {
    throw std::logic_error("engine '" + name_ + "': output variable '" +
                           out.name() + "' has no terms");
  }
  if (rules_.empty()) {
    throw std::logic_error("engine '" + name_ + "' has an empty rule base");
  }
  const RuleBaseReport report = rules_.validate(inputs_, out);
  if (!report.malformed.empty()) {
    std::ostringstream os;
    os << "engine '" << name_ << "': rule " << report.malformed.front()
       << " is malformed (bad arity, term index or weight)";
    throw std::logic_error(os.str());
  }
  if (!report.conflicts.empty()) {
    std::ostringstream os;
    os << "engine '" << name_ << "': rules " << report.conflicts.front().first
       << " and " << report.conflicts.front().second
       << " share an antecedent but disagree on the consequent";
    throw std::logic_error(os.str());
  }
  // Uncovered combinations are allowed (sparse rule bases are legal); the
  // FACS controllers assert completeness separately in their tests.
}

void MamdaniEngine::seal() {
  checkValid();
  sealed_ = true;
}

void MamdaniEngine::checkCall(std::span<const double> crisp_inputs) const {
  if (!sealed_) {
    throw std::logic_error("engine '" + name_ +
                           "' is not sealed; call seal() before inference");
  }
  if (crisp_inputs.size() != inputs_.size()) {
    std::ostringstream os;
    os << "engine '" << name_ << "' expects " << inputs_.size()
       << " inputs, got " << crisp_inputs.size();
    throw std::invalid_argument(os.str());
  }
}

void MamdaniEngine::fireInto(const std::vector<FuzzyVector>& fuzzified,
                             std::vector<double>& strengths) const {
  strengths.clear();
  strengths.reserve(rules_.size());
  for (const Rule& r : rules_.rules()) {
    double strength = 1.0;
    for (std::size_t v = 0; v < r.antecedent.size(); ++v) {
      if (r.antecedent[v] == kAnyTerm) continue;
      strength = apply(config_.conjunction, strength,
                       fuzzified[v][r.antecedent[v]]);
      if (strength == 0.0) break;
    }
    strengths.push_back(strength * r.weight);
  }
}

double MamdaniEngine::aggregateAndDefuzzify(
    const std::vector<double>& strengths, InferenceScratch& scratch) const {
  // Per-output-term activation level: the s-norm of the strengths of all
  // rules concluding in that term. Computing per-term activation first
  // keeps the aggregated curve O(#terms) pieces instead of O(#rules).
  const LinguisticVariable& out = output();
  std::vector<double>& term_activation = scratch.term_activation;
  term_activation.assign(out.termCount(), 0.0);
  for (std::size_t i = 0; i < strengths.size(); ++i) {
    if (strengths[i] <= 0.0) continue;
    const std::size_t t = rules_.rule(i).consequent;
    term_activation[t] =
        apply(config_.aggregation, term_activation[t], strengths[i]);
  }

  PiecewiseEnvelope& curve = scratch.piecewise;
  curve.clear();
  for (std::size_t t = 0; t < term_activation.size(); ++t) {
    if (term_activation[t] <= 0.0) continue;
    curve.add(config_.implication, out.term(t).mf().vertices(),
              term_activation[t]);
  }
  return curve.defuzzify(config_.aggregation, config_.defuzzifier,
                         out.universe());
}

double MamdaniEngine::infer(std::span<const double> crisp_inputs) const {
  // Shared across engines on the same thread; every inference resizes the
  // buffers to its own shape, so the steady state allocates nothing.
  static thread_local InferenceScratch scratch;
  return infer(crisp_inputs, scratch);
}

double MamdaniEngine::infer(std::span<const double> crisp_inputs,
                            InferenceScratch& scratch) const {
  checkCall(crisp_inputs);

  scratch.fuzzified.resize(inputs_.size());
  for (std::size_t v = 0; v < inputs_.size(); ++v) {
    inputs_[v].fuzzifyInto(crisp_inputs[v], scratch.fuzzified[v]);
  }
  fireInto(scratch.fuzzified, scratch.strengths);
  return aggregateAndDefuzzify(scratch.strengths, scratch);
}

InferenceTrace MamdaniEngine::inferTraced(
    std::span<const double> crisp_inputs) const {
  checkCall(crisp_inputs);

  InferenceTrace trace;
  trace.inputs.reserve(inputs_.size());
  trace.fuzzified.reserve(inputs_.size());
  for (std::size_t v = 0; v < inputs_.size(); ++v) {
    const double clamped = inputs_[v].universe().clamp(crisp_inputs[v]);
    trace.inputs.push_back(clamped);
    trace.fuzzified.push_back(inputs_[v].fuzzify(clamped));
  }

  // Exactly the scratch path's arithmetic — fireInto() and
  // aggregateAndDefuzzify() are the single implementation both share — plus
  // the activation bookkeeping only the trace wants.
  InferenceScratch scratch;
  fireInto(trace.fuzzified, scratch.strengths);
  for (std::size_t i = 0; i < scratch.strengths.size(); ++i) {
    if (scratch.strengths[i] > 0.0) {
      trace.activations.push_back({i, scratch.strengths[i]});
    }
  }

  trace.crisp_output = aggregateAndDefuzzify(scratch.strengths, scratch);
  trace.winning_output_term = output().winningTerm(trace.crisp_output);
  return trace;
}

}  // namespace facs::fuzzy
