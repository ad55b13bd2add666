// A minimal check macro for the benchmark's self-tests: they run in the
// benchmark's own build (perfbench/run.py --test), which links nothing but
// the maywsd libraries.

#ifndef PERFBENCH_TESTS_CHECK_H_
#define PERFBENCH_TESTS_CHECK_H_

#include <cstdio>

inline int g_check_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_check_failures;                                             \
    }                                                                 \
  } while (0)

#define CHECK_EQ(a, b) CHECK((a) == (b))

/// Exit status of a test binary.
inline int CheckResult(const char* name) {
  if (g_check_failures == 0) {
    std::printf("%s: all checks passed\n", name);
    return 0;
  }
  std::printf("%s: %d checks failed\n", name, g_check_failures);
  return 1;
}

#endif  // PERFBENCH_TESTS_CHECK_H_
