#pragma once
/// \file fdl.hpp
/// FDL — a small "Fuzzy Definition Language" for declaring Mamdani engines
/// as text, in the spirit of fuzzylite's FLL. Used by the example apps and
/// tests to build controllers without recompiling, and as a serialization
/// format for engine configurations.
///
/// Grammar (line oriented, '#' starts a comment, blank lines ignored):
///
///   engine <name>
///   conjunction  min|prod|lukasiewicz
///   implication  min|prod|lukasiewicz
///   aggregation  max|probor|bsum
///   defuzzifier  centroid|bisector|mom|som|lom
///   input  <name> <lo> <hi>
///   output <name> <lo> <hi>
///   term <name> tri  <center> <left_width> <right_width>
///   term <name> trap <plateau_lo> <plateau_hi> <left_width> <right_width>
///   rule <term>... => <term> [weight <w>]
///
/// `term` lines attach to the most recently declared variable; `rule`
/// antecedents are positional (one per input variable, "*" = wildcard).
/// Terms are triangles and trapezoids only, the paper's two shapes. Every
/// engine infers exactly, so no keyword sets a sampling resolution: a file
/// that still has a `resolution` line fails with "unknown keyword".

#include <iosfwd>
#include <string>
#include <string_view>

#include "fuzzy/engine.hpp"

namespace facs::fuzzy {

/// Error raised by the FDL parser, carrying the 1-based source line.
class FdlError : public std::runtime_error {
 public:
  FdlError(int line, const std::string& message);
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  int line_;
};

/// Parses an FDL document into a sealed engine, ready to infer.
/// \throws FdlError on any syntax or semantic problem, structural ones
///         (a variable without terms, conflicting rules) included.
[[nodiscard]] MamdaniEngine parseFdl(std::string_view text);

/// Reads an FDL document from a stream (e.g. std::ifstream).
[[nodiscard]] MamdaniEngine parseFdl(std::istream& in);

/// Serializes an engine back to FDL, every number in shortest round-trip
/// form. parseFdl(toFdl(e)) reproduces an engine with bit-identical
/// behaviour (round-trip property, covered by tests).
[[nodiscard]] std::string toFdl(const MamdaniEngine& engine);

}  // namespace facs::fuzzy
