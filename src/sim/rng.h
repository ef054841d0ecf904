// Seeding helpers for the simulator's random number generation.
#pragma once

#include <cstdint>

#include "dist/distribution.h"

namespace csq::sim {

// Deterministically derive a well-mixed RNG from (seed, stream) so replicas
// and parameter sweeps get independent, reproducible streams: the
// xoshiro256++ state is four splitmix64 outputs from a keyed seed.
[[nodiscard]] dist::Rng make_rng(std::uint64_t seed, std::uint64_t stream = 0);

// Seed-sequence split: derive a child seed from (seed, key) with a splitmix
// round, so hierarchical consumers — replication r of sweep point p gets
// split_seed(split_seed(seed, p), r) — own statistically independent
// substreams that depend only on their coordinates, never on which thread
// ran them. This is what makes parallel multi-replication simulation
// bit-identical for every thread count.
[[nodiscard]] std::uint64_t split_seed(std::uint64_t seed, std::uint64_t key);

}  // namespace csq::sim
