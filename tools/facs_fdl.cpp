/// \file facs_fdl.cpp
/// FDL utility: validate, normalize and exercise fuzzy controllers written
/// in the FDL text format.
///
///   facs_fdl check <file>              parse + validate, report problems
///   facs_fdl print <file>              parse and re-serialize (normalize)
///   facs_fdl infer <file> x1 x2 ...    run one inference, show the trace
///   facs_fdl facs-flc1|facs-flc2       dump the built-in FACS engines

#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/flc1.hpp"
#include "core/flc2.hpp"
#include "fuzzy/fdl.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace facs;

fuzzy::MamdaniEngine load(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  return fuzzy::parseFdl(in);
}

int check(const std::string& path) {
  const fuzzy::MamdaniEngine engine = load(path);  // parsing validates
  const fuzzy::RuleBaseReport report =
      engine.rules().validate(engine.inputs(), engine.output());
  std::cout << "engine '" << engine.name() << "': " << engine.inputCount()
            << " inputs, " << engine.output().termCount()
            << " output terms, " << engine.rules().size() << " rules\n";
  if (!report.uncovered.empty()) {
    std::cout << "warning: " << report.uncovered.size()
              << " uncovered input combinations, e.g. "
              << report.uncovered.front() << "\n";
  }
  for (std::size_t i = 0; i < engine.inputCount(); ++i) {
    if (!engine.input(i).covers()) {
      std::cout << "warning: input '" << engine.input(i).name()
                << "' does not cover its universe\n";
    }
  }
  std::cout << (report.ok ? "OK" : "OK with warnings") << "\n";
  return 0;
}

/// One crisp input: a finite number with nothing trailing.
std::optional<double> parseInput(const std::string& text) {
  double v = 0.0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size() ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

int infer(const std::string& path, const std::vector<std::string>& values) {
  const fuzzy::MamdaniEngine engine = load(path);
  if (values.size() != engine.inputCount()) {
    std::cerr << "engine '" << engine.name() << "' expects "
              << engine.inputCount() << " inputs\n";
    return 2;
  }
  std::vector<double> inputs;
  inputs.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::optional<double> v = parseInput(values[i]);
    if (!v) {
      std::cerr << "facs_fdl: infer: input '" << engine.input(i).name()
                << "' expects a finite number, got '" << values[i] << "'\n";
      return 2;
    }
    inputs.push_back(*v);
  }

  // Numbers print in shortest round-trip form, so two engines whose
  // traces differ in any bit print different text.
  const fuzzy::InferenceTrace trace = engine.inferTraced(inputs);
  for (std::size_t v = 0; v < engine.inputCount(); ++v) {
    std::cout << engine.input(v).name() << " = "
              << sim::shortestNumber(trace.inputs[v]) << "\n";
  }
  std::cout << "fired rules: " << trace.activations.size() << "\n";
  for (const auto& a : trace.activations) {
    std::cout << "  #" << a.rule_index << " strength "
              << sim::shortestNumber(a.firing_strength) << "\n";
  }
  std::cout << engine.output().name() << " = "
            << sim::shortestNumber(trace.crisp_output) << " ("
            << engine.output().term(trace.winning_output_term).name()
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args{argv + 1, argv + argc};
  try {
    if (args.empty() || args[0] == "--help" || args[0] == "-h") {
      std::cout << "usage: facs_fdl check|print|infer <file> [inputs...] |"
                   " facs-flc1 | facs-flc2\n";
      return args.empty() ? 2 : 0;
    }
    if (args[0] == "facs-flc1") {
      std::cout << fuzzy::toFdl(core::buildFlc1());
      return 0;
    }
    if (args[0] == "facs-flc2") {
      std::cout << fuzzy::toFdl(core::buildFlc2());
      return 0;
    }
    if (args.size() < 2) {
      std::cerr << "facs_fdl: missing file argument\n";
      return 2;
    }
    if (args[0] == "check") return check(args[1]);
    if (args[0] == "print") {
      std::cout << fuzzy::toFdl(load(args[1]));
      return 0;
    }
    if (args[0] == "infer") {
      return infer(args[1], {args.begin() + 2, args.end()});
    }
    std::cerr << "facs_fdl: unknown command '" << args[0] << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "facs_fdl: " << e.what() << "\n";
    return 1;
  }
}
