#include "fuzzy/engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace facs::fuzzy {

namespace {

/// The aggregation inner loop of the sampled path, specialized per operator
/// pair so the per-sample work is branch-light and autovectorizable. Each
/// functor mirrors apply() in norms.cpp exactly — same primitive ops, so
/// the specialized loops share every bit with apply().
template <typename ImplOp, typename AggOp>
void accumulateRow(double activation, const double* term_mu, double* mu,
                   std::size_t n, ImplOp impl, AggOp agg) {
  for (std::size_t i = 0; i < n; ++i) {
    mu[i] = agg(mu[i], impl(activation, term_mu[i]));
  }
}

struct MinOp {
  double operator()(double a, double b) const { return std::min(a, b); }
};
struct ProdOp {
  double operator()(double a, double b) const { return a * b; }
};
struct LukOp {
  double operator()(double a, double b) const {
    return std::max(0.0, a + b - 1.0);
  }
};
struct MaxOp {
  double operator()(double a, double b) const { return std::max(a, b); }
};
struct ProborOp {
  double operator()(double a, double b) const { return a + b - a * b; }
};
struct BsumOp {
  double operator()(double a, double b) const { return std::min(1.0, a + b); }
};

template <typename ImplOp>
void accumulateWithAgg(SNorm agg, double activation, const double* term_mu,
                       double* mu, std::size_t n, ImplOp impl) {
  switch (agg) {
    case SNorm::Maximum:
      return accumulateRow(activation, term_mu, mu, n, impl, MaxOp{});
    case SNorm::AlgebraicSum:
      return accumulateRow(activation, term_mu, mu, n, impl, ProborOp{});
    case SNorm::BoundedSum:
      return accumulateRow(activation, term_mu, mu, n, impl, BsumOp{});
  }
  // Unknown enum value: fall back to the generic dispatcher so a future
  // norm cannot silently diverge from apply().
  for (std::size_t i = 0; i < n; ++i) {
    mu[i] = apply(agg, mu[i], impl(activation, term_mu[i]));
  }
}

void accumulateTerm(TNorm impl, SNorm agg, double activation,
                    const double* term_mu, double* mu, std::size_t n) {
  switch (impl) {
    case TNorm::Minimum:
      return accumulateWithAgg(agg, activation, term_mu, mu, n, MinOp{});
    case TNorm::AlgebraicProduct:
      return accumulateWithAgg(agg, activation, term_mu, mu, n, ProdOp{});
    case TNorm::BoundedDifference:
      return accumulateWithAgg(agg, activation, term_mu, mu, n, LukOp{});
  }
  for (std::size_t i = 0; i < n; ++i) {
    mu[i] = apply(agg, mu[i], apply(impl, activation, term_mu[i]));
  }
}

}  // namespace

MamdaniEngine::MamdaniEngine(std::string name, EngineConfig config)
    : name_{std::move(name)}, config_{config} {
  if (name_.empty()) {
    throw std::invalid_argument("engine name must not be empty");
  }
  if (config_.resolution < 2) {
    throw std::invalid_argument("engine resolution must be >= 2");
  }
  if (config_.resolution > kMaxResolution) {
    throw std::invalid_argument("engine resolution must be <= " +
                                std::to_string(kMaxResolution));
  }
}

std::size_t MamdaniEngine::addInput(LinguisticVariable variable) {
  unseal();
  inputs_.push_back(std::move(variable));
  return inputs_.size() - 1;
}

void MamdaniEngine::setOutput(LinguisticVariable variable) {
  unseal();
  output_.clear();
  output_.push_back(std::move(variable));
}

void MamdaniEngine::addRule(const std::vector<std::string>& antecedent_terms,
                            const std::string& consequent_term, double weight) {
  unseal();
  rules_.add(inputs_, output(), antecedent_terms, consequent_term, weight);
}

void MamdaniEngine::addRule(Rule rule) {
  unseal();
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

bool MamdaniEngine::piecewiseLinear() const noexcept {
  return config_.implication == TNorm::Minimum &&
         config_.aggregation == SNorm::Maximum;
}

void MamdaniEngine::seal() {
  checkValid();
  piecewise_ = piecewiseLinear();
  sealed_ = true;
  if (piecewise_) return;

  // Tabulate the output terms on the fixed sample grid x = lo + step * i,
  // step = width / (resolution - 1): a pure function of (universe,
  // resolution), so every inference folds the same samples.
  const LinguisticVariable& out = output();
  const Interval u = out.universe();
  const auto n = static_cast<std::size_t>(config_.resolution);
  tables_.x.resize(n);
  const double step = u.width() / (config_.resolution - 1);
  for (int i = 0; i < config_.resolution; ++i) {
    tables_.x[static_cast<std::size_t>(i)] = u.lo + step * i;
  }
  fillTrapezoidWeights(tables_.x, tables_.half_dx);
  tables_.term_mu.resize(out.termCount() * n);
  for (std::size_t t = 0; t < out.termCount(); ++t) {
    out.tabulateTerm(t, tables_.x,
                     std::span<double>{tables_.term_mu.data() + t * n, n});
  }
}

void MamdaniEngine::unseal() {
  sealed_ = false;
  tables_ = OutputTables{};
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
  // rules concluding in that term. Computing per-term activation first (and
  // evaluating each term's membership once per sample point) keeps the
  // aggregated-curve evaluation O(#terms) instead of O(#rules).
  const LinguisticVariable& out = output();
  std::vector<double>& term_activation = scratch.term_activation;
  term_activation.assign(out.termCount(), 0.0);
  for (std::size_t i = 0; i < strengths.size(); ++i) {
    if (strengths[i] <= 0.0) continue;
    const std::size_t t = rules_.rule(i).consequent;
    term_activation[t] =
        apply(config_.aggregation, term_activation[t], strengths[i]);
  }

  if (piecewise_) {
    PiecewiseEnvelope& envelope = scratch.piecewise;
    envelope.clear();
    for (std::size_t t = 0; t < term_activation.size(); ++t) {
      if (term_activation[t] <= 0.0) continue;
      envelope.addClipped(out.term(t).mf().vertices(), term_activation[t]);
    }
    return envelope.defuzzify(config_.defuzzifier, out.universe());
  }

  // Fold each active term's sample row into the aggregated curve, in
  // ascending term order per sample; the inner loop walks contiguous
  // doubles.
  const std::size_t n = tables_.x.size();
  scratch.curve_mu.assign(n, 0.0);
  for (std::size_t t = 0; t < term_activation.size(); ++t) {
    if (term_activation[t] <= 0.0) continue;
    accumulateTerm(config_.implication, config_.aggregation,
                   term_activation[t], tables_.term_mu.data() + t * n,
                   scratch.curve_mu.data(), n);
  }
  return defuzzifySampled(config_.defuzzifier, tables_.x, scratch.curve_mu,
                          tables_.half_dx, scratch.defuzz);
}

double MamdaniEngine::infer(std::span<const double> crisp_inputs) const {
  // Shared across engines on the same thread; every inference resizes the
  // buffers to its own shape, so the steady state allocates nothing.
  static thread_local InferenceScratch scratch;
  return inferInto(crisp_inputs, scratch);
}

double MamdaniEngine::infer(std::span<const double> crisp_inputs,
                            InferenceScratch& scratch) const {
  return inferInto(crisp_inputs, scratch);
}

double MamdaniEngine::inferInto(std::span<const double> crisp_inputs,
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
