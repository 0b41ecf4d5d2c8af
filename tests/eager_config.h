// The dispatcher configuration of tests that must run generated code.
//
// A default dispatcher interprets an event until its kLazyPromoteRaises-th
// raise, so a case that raises an event a few times would dispatch it
// through the interpreter in both ctest arms. Eager compilation gives every
// table generation its stub in the JIT arm; SPIN_DISABLE_JIT=1 still runs
// the interpreter in the other.
#ifndef TESTS_EAGER_CONFIG_H_
#define TESTS_EAGER_CONFIG_H_

#include "src/core/dispatcher.h"

namespace spin {

inline Dispatcher::Config EagerConfig(Dispatcher::Config config = {}) {
  config.lazy_compile = false;
  return config;
}

}  // namespace spin

#endif  // TESTS_EAGER_CONFIG_H_
