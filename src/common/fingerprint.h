// Run fingerprints: a 64-bit hash-combine that benches and tests fold run
// counters into, so a bit-determinism check compares one number instead of
// a table. The constants are fixed — recorded fingerprints depend on them.
#pragma once

#include <cstdint>

namespace repro {

inline std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDull;
}

}  // namespace repro
