#include "sim/rng.h"

namespace csq::sim {

using dist::splitmix64;

dist::Rng make_rng(std::uint64_t seed, std::uint64_t stream) {
  return dist::Rng(seed ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
}

std::uint64_t split_seed(std::uint64_t seed, std::uint64_t key) {
  // Two splitmix rounds over a keyed state: enough mixing that adjacent keys
  // (replication indices) share no low-bit structure.
  std::uint64_t s = seed ^ (0xbf58476d1ce4e5b9ULL * (key + 1));
  (void)splitmix64(s);
  return splitmix64(s);
}

}  // namespace csq::sim
