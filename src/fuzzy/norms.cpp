#include "fuzzy/norms.hpp"

namespace facs::fuzzy {

std::string_view toString(TNorm n) noexcept {
  switch (n) {
    case TNorm::Minimum:
      return "min";
    case TNorm::AlgebraicProduct:
      return "prod";
    case TNorm::BoundedDifference:
      return "lukasiewicz";
  }
  return "min";
}

std::string_view toString(SNorm n) noexcept {
  switch (n) {
    case SNorm::Maximum:
      return "max";
    case SNorm::AlgebraicSum:
      return "probor";
    case SNorm::BoundedSum:
      return "bsum";
  }
  return "max";
}

}  // namespace facs::fuzzy
