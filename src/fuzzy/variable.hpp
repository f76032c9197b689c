#pragma once
/// \file variable.hpp
/// Linguistic terms and linguistic variables (the "term sets" of the paper,
/// e.g. T(S) = {Slow, Middle, Fast}).

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzzy/membership.hpp"

namespace facs::fuzzy {

/// A named fuzzy set over a variable's universe: one entry of a term set.
/// Value semantics (deep-copies its membership function).
class Term {
 public:
  Term(std::string name, std::unique_ptr<MembershipFunction> mf);

  Term(const Term& other);
  Term& operator=(const Term& other);
  Term(Term&&) noexcept = default;
  Term& operator=(Term&&) noexcept = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const MembershipFunction& mf() const noexcept { return *mf_; }
  [[nodiscard]] double degree(double x) const noexcept { return mf_->degree(x); }

 private:
  std::string name_;
  std::unique_ptr<MembershipFunction> mf_;
};

/// Degrees of membership of one crisp value in every term of a variable,
/// in term-declaration order. Produced by LinguisticVariable::fuzzify().
using FuzzyVector = std::vector<double>;

/// A linguistic variable: a name, a universe of discourse [min, max] and an
/// ordered term set.
///
/// Crisp inputs are clamped to the universe before fuzzification — GPS noise
/// can report a speed slightly above the nominal 120 km/h maximum and the
/// controller must still produce a decision (Core Guidelines P.6: make
/// run-time checkable what cannot be checked statically).
class LinguisticVariable {
 public:
  /// \throws std::invalid_argument if the universe is empty or inverted.
  LinguisticVariable(std::string name, Interval universe);

  /// Appends a term. Term names must be unique within the variable.
  /// \throws std::invalid_argument on duplicate name.
  void addTerm(std::string term_name, std::unique_ptr<MembershipFunction> mf);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Interval universe() const noexcept { return universe_; }
  [[nodiscard]] std::size_t termCount() const noexcept { return terms_.size(); }
  [[nodiscard]] const Term& term(std::size_t i) const { return terms_.at(i); }
  [[nodiscard]] const std::vector<Term>& terms() const noexcept {
    return terms_;
  }

  /// Index of the term with the given name, if any.
  [[nodiscard]] std::optional<std::size_t> termIndex(
      std::string_view term_name) const noexcept;

  /// Degrees of membership of \p x (clamped to the universe) in every term.
  [[nodiscard]] FuzzyVector fuzzify(double x) const;

  /// As fuzzify(), writing into \p out (cleared first). Reusing one vector
  /// across calls keeps repeated fuzzification allocation-free — the
  /// engine's scratch inference path depends on this.
  void fuzzifyInto(double x, FuzzyVector& out) const;

  /// Index of the term with the highest membership at \p x (ties resolved to
  /// the earliest-declared term).
  /// \throws std::logic_error if the variable has no terms.
  [[nodiscard]] std::size_t winningTerm(double x) const;

  /// True if every sampled point of the universe belongs to at least one
  /// term with degree >= \p min_degree. A healthy FLC input partition covers
  /// its whole universe; the FACS term sets are validated with this in tests.
  [[nodiscard]] bool covers(double min_degree = 0.0,
                            int samples = 2001) const;

 private:
  std::string name_;
  Interval universe_;
  std::vector<Term> terms_;
};

}  // namespace facs::fuzzy
