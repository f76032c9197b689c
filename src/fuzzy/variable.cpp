#include "fuzzy/variable.hpp"

#include <algorithm>
#include <stdexcept>

namespace facs::fuzzy {

Term::Term(std::string name, std::unique_ptr<MembershipFunction> mf)
    : name_{std::move(name)}, mf_{std::move(mf)} {
  if (name_.empty()) throw std::invalid_argument("term name must not be empty");
  if (!mf_) throw std::invalid_argument("term requires a membership function");
}

Term::Term(const Term& other) : name_{other.name_}, mf_{other.mf_->clone()} {}

Term& Term::operator=(const Term& other) {
  if (this != &other) {
    name_ = other.name_;
    mf_ = other.mf_->clone();
  }
  return *this;
}

LinguisticVariable::LinguisticVariable(std::string name, Interval universe)
    : name_{std::move(name)}, universe_{universe} {
  if (name_.empty()) {
    throw std::invalid_argument("variable name must not be empty");
  }
  if (!(universe_.lo < universe_.hi)) {
    throw std::invalid_argument("variable '" + name_ +
                                "' has an empty or inverted universe");
  }
}

void LinguisticVariable::addTerm(std::string term_name,
                                 std::unique_ptr<MembershipFunction> mf) {
  if (termIndex(term_name).has_value()) {
    throw std::invalid_argument("variable '" + name_ + "' already has a term '" +
                                term_name + "'");
  }
  terms_.emplace_back(std::move(term_name), std::move(mf));
}

std::optional<std::size_t> LinguisticVariable::termIndex(
    std::string_view term_name) const noexcept {
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (terms_[i].name() == term_name) return i;
  }
  return std::nullopt;
}

FuzzyVector LinguisticVariable::fuzzify(double x) const {
  FuzzyVector out;
  fuzzifyInto(x, out);
  return out;
}

void LinguisticVariable::fuzzifyInto(double x, FuzzyVector& out) const {
  const double clamped = universe_.clamp(x);
  out.clear();
  out.reserve(terms_.size());
  for (const Term& t : terms_) out.push_back(t.degree(clamped));
}

std::size_t LinguisticVariable::winningTerm(double x) const {
  if (terms_.empty()) {
    throw std::logic_error("variable '" + name_ + "' has no terms");
  }
  const double clamped = universe_.clamp(x);
  std::size_t best = 0;
  double best_degree = terms_[0].degree(clamped);
  for (std::size_t i = 1; i < terms_.size(); ++i) {
    const double d = terms_[i].degree(clamped);
    if (d > best_degree) {
      best = i;
      best_degree = d;
    }
  }
  return best;
}

bool LinguisticVariable::covers(double min_degree, int samples) const {
  if (terms_.empty()) return false;
  if (samples < 2) throw std::invalid_argument("covers() needs >= 2 samples");
  const double step = universe_.width() / (samples - 1);
  for (int i = 0; i < samples; ++i) {
    const double x = universe_.lo + step * i;
    const bool covered = std::any_of(
        terms_.begin(), terms_.end(),
        [&](const Term& t) { return t.degree(x) > min_degree; });
    if (!covered) return false;
  }
  return true;
}

}  // namespace facs::fuzzy
