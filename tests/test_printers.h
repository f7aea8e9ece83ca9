// gtest prints each test parameter into the name ctest registers
// ("…/Sphere_d4_k1  # GetParam() = (Sphere, 4, 1)"). A type without a
// printer is dumped as raw bytes, padding included, so such names can change
// from build to build. Tests that take an ApproxAlgorithm, alone or in a
// tuple, include this printer; a test's own parameter struct gets its
// PrintTo beside it.

#ifndef NNCELL_TESTS_TEST_PRINTERS_H_
#define NNCELL_TESTS_TEST_PRINTERS_H_

#include <ostream>

#include "geom/cell_approximator.h"

namespace nncell {

inline void PrintTo(ApproxAlgorithm a, std::ostream* os) {
  *os << ApproxAlgorithmName(a);
}

}  // namespace nncell

#endif  // NNCELL_TESTS_TEST_PRINTERS_H_
