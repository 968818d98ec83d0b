// Generator determinism: for every workload, the same seed must give a
// byte-identical graph and request stream, and a different seed a
// different one. Exits non-zero on the first violation.
#include <cstdio>
#include <string>

#include "generator.h"

int main() {
  constexpr size_t kStreamLength = 512;
  int failures = 0;
  for (const char* name :
       {"cold_mixed", "warm_repeat", "read_write", "parallel_boolean"}) {
    const servicebench::WorkloadDef& workload =
        *servicebench::FindWorkload(name);
    for (uint64_t seed : {1u, 7u, 12345u}) {
      const std::string a =
          servicebench::SerializeInputs(workload, seed, kStreamLength);
      const std::string b =
          servicebench::SerializeInputs(workload, seed, kStreamLength);
      const std::string other =
          servicebench::SerializeInputs(workload, seed + 1, kStreamLength);
      if (a != b) {
        std::fprintf(stderr, "%s seed %llu: inputs differ between calls\n",
                     name, static_cast<unsigned long long>(seed));
        ++failures;
      }
      if (a == other) {
        std::fprintf(stderr, "%s seeds %llu and %llu: identical inputs\n",
                     name, static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(seed + 1));
        ++failures;
      }
    }
  }
  std::printf("servicebench generator determinism: %s\n",
              failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
