#include "fuzzy/fdl.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <optional>
#include <sstream>
#include <vector>

namespace facs::fuzzy {

FdlError::FdlError(int line, const std::string& message)
    : std::runtime_error("FDL line " + std::to_string(line) + ": " + message),
      line_{line} {}

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size() || line[i] == '#') break;
    std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

/// Finite only: std::from_chars accepts "nan" and "inf", but no FDL field
/// means anything non-finite — a NaN universe would infer NaN outputs.
/// Subnormals parse, so every number toFdl() prints reads back.
double parseNumber(const std::string& token, int line) {
  double v = 0.0;
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (res.ec != std::errc{} || res.ptr != token.data() + token.size() ||
      !std::isfinite(v)) {
    throw FdlError(line, "expected a finite number, got '" + token + "'");
  }
  return v;
}

TNorm parseTNorm(const std::string& token, int line) {
  if (token == "min") return TNorm::Minimum;
  if (token == "prod") return TNorm::AlgebraicProduct;
  if (token == "lukasiewicz") return TNorm::BoundedDifference;
  throw FdlError(line, "unknown t-norm '" + token + "'");
}

SNorm parseSNorm(const std::string& token, int line) {
  if (token == "max") return SNorm::Maximum;
  if (token == "probor") return SNorm::AlgebraicSum;
  if (token == "bsum") return SNorm::BoundedSum;
  throw FdlError(line, "unknown s-norm '" + token + "'");
}

Defuzzifier parseDefuzzifier(const std::string& token, int line) {
  if (token == "centroid") return Defuzzifier::Centroid;
  if (token == "bisector") return Defuzzifier::Bisector;
  if (token == "mom") return Defuzzifier::MeanOfMax;
  if (token == "som") return Defuzzifier::SmallestOfMax;
  if (token == "lom") return Defuzzifier::LargestOfMax;
  throw FdlError(line, "unknown defuzzifier '" + token + "'");
}

/// Incremental builder state while walking the document.
struct Builder {
  std::optional<std::string> engine_name;
  EngineConfig config;
  std::vector<LinguisticVariable> inputs;
  std::optional<LinguisticVariable> output;
  std::vector<int> input_lines;  ///< Where each input was declared.
  int output_line = 0;
  // Terms attach to the variable declared last.
  enum class Attach { None, Input, Output } attach = Attach::None;
  struct PendingRule {
    std::vector<std::string> antecedent;
    std::string consequent;
    double weight = 1.0;
    int line = 0;  ///< Where the rule was written, for build errors.
  };
  std::vector<PendingRule> rules;
};

void handleTerm(Builder& b, const std::vector<std::string>& tok, int line) {
  if (b.attach == Builder::Attach::None) {
    throw FdlError(line, "'term' before any variable declaration");
  }
  if (tok.size() < 3) throw FdlError(line, "term: missing shape");
  const std::string& name = tok[1];
  const std::string& shape = tok[2];
  std::unique_ptr<MembershipFunction> mf;
  try {
    if (shape == "tri") {
      if (tok.size() != 6) {
        throw FdlError(line, "tri needs: center left_width right_width");
      }
      mf = makeTriangle(parseNumber(tok[3], line), parseNumber(tok[4], line),
                        parseNumber(tok[5], line));
    } else if (shape == "trap") {
      if (tok.size() != 7) {
        throw FdlError(line,
                       "trap needs: plateau_lo plateau_hi left_width right_width");
      }
      mf = makeTrapezoid(parseNumber(tok[3], line), parseNumber(tok[4], line),
                         parseNumber(tok[5], line), parseNumber(tok[6], line));
    } else {
      throw FdlError(line, "unknown shape '" + shape + "' (tri|trap)");
    }
    if (b.attach == Builder::Attach::Input) {
      b.inputs.back().addTerm(name, std::move(mf));
    } else {
      b.output->addTerm(name, std::move(mf));
    }
  } catch (const FdlError&) {
    throw;
  } catch (const std::exception& e) {
    throw FdlError(line, e.what());
  }
}

void handleRule(Builder& b, const std::vector<std::string>& tok, int line) {
  Builder::PendingRule r;
  r.line = line;
  std::size_t i = 1;
  for (; i < tok.size() && tok[i] != "=>"; ++i) r.antecedent.push_back(tok[i]);
  if (i >= tok.size()) throw FdlError(line, "rule: missing '=>'");
  ++i;
  if (i >= tok.size()) throw FdlError(line, "rule: missing consequent term");
  r.consequent = tok[i++];
  if (i < tok.size()) {
    if (tok[i] != "weight" || i + 1 >= tok.size()) {
      throw FdlError(line, "rule: expected 'weight <w>' after consequent");
    }
    r.weight = parseNumber(tok[i + 1], line);
    i += 2;
  }
  if (i != tok.size()) throw FdlError(line, "rule: trailing tokens");
  b.rules.push_back(std::move(r));
}

/// The line of the first structural defect seal() reports, checked in
/// checkValid()'s order: an input or the output without terms names its
/// declaration, conflicting rules the later one; a missing piece, line 1.
int defectLine(const Builder& b, const MamdaniEngine& engine) {
  if (engine.inputCount() == 0) return 1;
  for (std::size_t v = 0; v < engine.inputCount(); ++v) {
    if (engine.input(v).termCount() == 0) return b.input_lines[v];
  }
  if (engine.output().termCount() == 0) return b.output_line;
  if (!engine.rules().empty()) {
    const RuleBaseReport report =
        engine.rules().validate(engine.inputs(), engine.output());
    if (!report.conflicts.empty()) {
      return b.rules[report.conflicts.front().second].line;
    }
  }
  return 1;
}

}  // namespace

MamdaniEngine parseFdl(std::string_view text) {
  Builder b;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string& kw = tok[0];

    if (kw == "engine") {
      if (tok.size() != 2) throw FdlError(line_no, "engine: expected a name");
      b.engine_name = tok[1];
    } else if (kw == "conjunction") {
      if (tok.size() != 2) throw FdlError(line_no, "conjunction: expected one operator");
      b.config.conjunction = parseTNorm(tok[1], line_no);
    } else if (kw == "implication") {
      if (tok.size() != 2) throw FdlError(line_no, "implication: expected one operator");
      b.config.implication = parseTNorm(tok[1], line_no);
    } else if (kw == "aggregation") {
      if (tok.size() != 2) throw FdlError(line_no, "aggregation: expected one operator");
      b.config.aggregation = parseSNorm(tok[1], line_no);
    } else if (kw == "defuzzifier") {
      if (tok.size() != 2) throw FdlError(line_no, "defuzzifier: expected one method");
      b.config.defuzzifier = parseDefuzzifier(tok[1], line_no);
    } else if (kw == "input" || kw == "output") {
      if (tok.size() != 4) {
        throw FdlError(line_no, kw + ": expected <name> <lo> <hi>");
      }
      try {
        LinguisticVariable v{tok[1], Interval{parseNumber(tok[2], line_no),
                                              parseNumber(tok[3], line_no)}};
        if (kw == "input") {
          b.inputs.push_back(std::move(v));
          b.input_lines.push_back(line_no);
          b.attach = Builder::Attach::Input;
        } else {
          b.output = std::move(v);
          b.output_line = line_no;
          b.attach = Builder::Attach::Output;
        }
      } catch (const FdlError&) {
        throw;
      } catch (const std::exception& e) {
        throw FdlError(line_no, e.what());
      }
    } else if (kw == "term") {
      handleTerm(b, tok, line_no);
    } else if (kw == "rule") {
      handleRule(b, tok, line_no);
    } else {
      throw FdlError(line_no, "unknown keyword '" + kw + "'");
    }
  }

  if (!b.engine_name) throw FdlError(1, "missing 'engine <name>' declaration");
  if (!b.output) throw FdlError(1, "missing output variable");

  MamdaniEngine engine{*b.engine_name, b.config};
  for (auto& v : b.inputs) engine.addInput(std::move(v));
  engine.setOutput(std::move(*b.output));
  for (const auto& r : b.rules) {
    try {
      engine.addRule(r.antecedent, r.consequent, r.weight);
    } catch (const std::exception& e) {
      throw FdlError(r.line, std::string{"while adding rule: "} + e.what());
    }
  }
  try {
    engine.seal();
  } catch (const std::logic_error& e) {
    throw FdlError(defectLine(b, engine), e.what());
  }
  return engine;
}

MamdaniEngine parseFdl(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseFdl(buffer.str());
}

namespace {

/// Shortest text that parses back to the same double (std::to_chars), so
/// a round trip keeps every parameter bit for bit.
std::string num(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void writeMf(std::ostream& os, const MembershipFunction& mf) {
  if (const auto* tri = dynamic_cast<const Triangular*>(&mf)) {
    os << "tri " << num(tri->center()) << " " << num(tri->leftWidth()) << " "
       << num(tri->rightWidth());
  } else if (const auto* trap = dynamic_cast<const Trapezoidal*>(&mf)) {
    os << "trap " << num(trap->plateauLo()) << " " << num(trap->plateauHi())
       << " " << num(trap->leftWidth()) << " " << num(trap->rightWidth());
  } else {
    throw std::logic_error("toFdl: unsupported membership function shape");
  }
}

void writeVariable(std::ostream& os, const char* kw,
                   const LinguisticVariable& v) {
  os << kw << " " << v.name() << " " << num(v.universe().lo) << " "
     << num(v.universe().hi) << "\n";
  for (const Term& t : v.terms()) {
    os << "  term " << t.name() << " ";
    writeMf(os, t.mf());
    os << "\n";
  }
}

}  // namespace

std::string toFdl(const MamdaniEngine& engine) {
  std::ostringstream os;
  os << "engine " << engine.name() << "\n";
  os << "conjunction " << toString(engine.config().conjunction) << "\n";
  os << "implication " << toString(engine.config().implication) << "\n";
  os << "aggregation " << toString(engine.config().aggregation) << "\n";
  os << "defuzzifier " << toString(engine.config().defuzzifier) << "\n";
  for (const auto& v : engine.inputs()) writeVariable(os, "input", v);
  writeVariable(os, "output", engine.output());
  for (const Rule& r : engine.rules().rules()) {
    os << "rule";
    for (std::size_t v = 0; v < r.antecedent.size(); ++v) {
      if (r.antecedent[v] == kAnyTerm) {
        os << " *";
      } else {
        os << " " << engine.input(v).term(r.antecedent[v]).name();
      }
    }
    os << " => " << engine.output().term(r.consequent).name();
    if (r.weight != 1.0) os << " weight " << num(r.weight);
    os << "\n";
  }
  return os.str();
}

}  // namespace facs::fuzzy
