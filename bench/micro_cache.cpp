// Engineering micro-benchmarks (google-benchmark): cost of the hot cache
// paths, since the simulator's throughput bounds every experiment above.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mem/block_index.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/replacement.hpp"

namespace {

using namespace capart;

constexpr auto kNone = mem::PartitionEnforcement::kNone;
constexpr auto kEvictionControl =
    mem::PartitionEnforcement::kWayEvictionControl;

void BM_SetAssocHit(benchmark::State& state) {
  mem::CacheCore cache({.sets = 256, .ways = 8, .line_bytes = 64}, 1, kNone);
  cache.access(0, 0, AccessType::kRead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(0, 0, AccessType::kRead).hit);
  }
}
BENCHMARK(BM_SetAssocHit);

void BM_SetAssocMissStream(benchmark::State& state) {
  mem::CacheCore cache({.sets = 256, .ways = 8, .line_bytes = 64}, 1, kNone);
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(0, addr, AccessType::kRead).hit);
    addr += 64;
  }
}
BENCHMARK(BM_SetAssocMissStream);

void BM_PartitionedHit(benchmark::State& state) {
  const auto ways = static_cast<std::uint32_t>(state.range(0));
  mem::CacheCore cache({.sets = 256, .ways = ways, .line_bytes = 64}, 4,
                       kEvictionControl);
  cache.access(0, 0, AccessType::kRead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(0, 0, AccessType::kRead));
  }
}
BENCHMARK(BM_PartitionedHit)->Arg(16)->Arg(64);

void BM_PartitionedMissEvictionControl(benchmark::State& state) {
  const auto ways = static_cast<std::uint32_t>(state.range(0));
  mem::CacheCore cache({.sets = 256, .ways = ways, .line_bytes = 64}, 4,
                       kEvictionControl);
  Rng rng(1);
  for (auto _ : state) {
    const auto tid = static_cast<ThreadId>(rng.below(4));
    benchmark::DoNotOptimize(
        cache.access(tid, rng.below(1u << 24) * 64, AccessType::kRead));
  }
}
BENCHMARK(BM_PartitionedMissEvictionControl)->Arg(16)->Arg(64);

void BM_PartitionedMissGlobalLru(benchmark::State& state) {
  mem::CacheCore cache({.sets = 256, .ways = 64, .line_bytes = 64}, 4, kNone);
  Rng rng(1);
  for (auto _ : state) {
    const auto tid = static_cast<ThreadId>(rng.below(4));
    benchmark::DoNotOptimize(
        cache.access(tid, rng.below(1u << 24) * 64, AccessType::kRead));
  }
}
BENCHMARK(BM_PartitionedMissGlobalLru);

// Per-access cost per replacement policy, hit and miss paths, at the
// paper's 64-way shared-L2 associativity. Arg 0 selects the policy
// (0 = lru, 1 = plru, 2 = srrip). The LRU miss path is the number to watch:
// it used to rescan 64 per-line stamps per victim search; the recency
// permutation finds the victim without the stamp scan.
mem::CacheGeometry repl_geometry(std::int64_t arg) {
  return {.sets = 256,
          .ways = 64,
          .line_bytes = 64,
          .repl = mem::kAllReplacementKinds[static_cast<std::size_t>(arg)]};
}

void repl_arg_name(benchmark::internal::Benchmark* b) {
  b->ArgNames({"repl"})->Arg(0)->Arg(1)->Arg(2);
}

void BM_ReplacementHit(benchmark::State& state) {
  mem::CacheCore cache(repl_geometry(state.range(0)), 4, kEvictionControl);
  cache.access(0, 0, AccessType::kRead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(0, 0, AccessType::kRead));
  }
}
BENCHMARK(BM_ReplacementHit)->Apply(repl_arg_name);

void BM_ReplacementMissEvictionControl(benchmark::State& state) {
  mem::CacheCore cache(repl_geometry(state.range(0)), 4, kEvictionControl);
  Rng rng(1);
  for (auto _ : state) {
    const auto tid = static_cast<ThreadId>(rng.below(4));
    benchmark::DoNotOptimize(
        cache.access(tid, rng.below(1u << 24) * 64, AccessType::kRead));
  }
}
BENCHMARK(BM_ReplacementMissEvictionControl)->Apply(repl_arg_name);

void BM_ReplacementMissGlobal(benchmark::State& state) {
  mem::CacheCore cache(repl_geometry(state.range(0)), 4, kNone);
  Rng rng(1);
  for (auto _ : state) {
    const auto tid = static_cast<ThreadId>(rng.below(4));
    benchmark::DoNotOptimize(
        cache.access(tid, rng.below(1u << 24) * 64, AccessType::kRead));
  }
}
BENCHMARK(BM_ReplacementMissGlobal)->Apply(repl_arg_name);

// Tag-lookup mechanism ablation (--l2-index). Args: {ways, index} with
// index 0 = scan, 1 = hash. The hit path re-walks a resident working set
// (pure lookup cost); the random miss stream adds victim choice and index
// maintenance. The kAuto crossover in CacheGeometry::resolved_index comes
// from these numbers.
mem::CacheGeometry index_geometry(std::int64_t ways, std::int64_t kind) {
  return {.sets = 256,
          .ways = static_cast<std::uint32_t>(ways),
          .line_bytes = 64,
          .index = mem::kAllIndexMechanisms[static_cast<std::size_t>(kind)]};
}

void index_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"ways", "index"});
  for (std::int64_t ways : {16, 32, 64}) {
    b->Args({ways, 0});
    b->Args({ways, 1});
  }
}

void BM_IndexHit(benchmark::State& state) {
  mem::CacheCore cache(index_geometry(state.range(0), state.range(1)), 4,
                       kEvictionControl);
  // A resident working set of ~4 lines per set: every loop access hits, with
  // a realistic mix of probe depths.
  Rng rng(7);
  std::vector<Addr> addrs;
  addrs.reserve(1024);
  for (int i = 0; i < 1024; ++i) addrs.push_back(rng.below(1u << 24) * 64);
  for (const Addr a : addrs) cache.access(0, a, AccessType::kRead);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(0, addrs[i], AccessType::kRead));
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_IndexHit)->Apply(index_args);

void BM_IndexMissEvictionControl(benchmark::State& state) {
  mem::CacheCore cache(index_geometry(state.range(0), state.range(1)), 4,
                       kEvictionControl);
  Rng rng(1);
  for (auto _ : state) {
    const auto tid = static_cast<ThreadId>(rng.below(4));
    benchmark::DoNotOptimize(
        cache.access(tid, rng.below(1u << 24) * 64, AccessType::kRead));
  }
}
BENCHMARK(BM_IndexMissEvictionControl)->Apply(index_args);

// Full hot-path matrix at the paper's 64-way L2: replacement policy x
// enforcement mode x lookup mechanism over a mixed hit/miss random stream
// (~25% hits). Args: {repl, enforce, index}. kSetColoring drives
// access_in_set directly — the coloring wrapper's own block->set mapping is
// not what is being measured.
constexpr mem::PartitionEnforcement kAllEnforcements[] = {
    mem::PartitionEnforcement::kNone,
    mem::PartitionEnforcement::kWayEvictionControl,
    mem::PartitionEnforcement::kWayFlushReconfigure,
    mem::PartitionEnforcement::kSetColoring,
};

void hot_path_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"repl", "enforce", "index"});
  for (std::int64_t repl = 0; repl < 3; ++repl) {
    for (std::int64_t enforce = 0; enforce < 4; ++enforce) {
      b->Args({repl, enforce, 0});
      b->Args({repl, enforce, 1});
    }
  }
}

void BM_HotPath(benchmark::State& state) {
  const mem::CacheGeometry geometry = {
      .sets = 256,
      .ways = 64,
      .line_bytes = 64,
      .repl =
          mem::kAllReplacementKinds[static_cast<std::size_t>(state.range(0))],
      .index =
          mem::kAllIndexMechanisms[static_cast<std::size_t>(state.range(2))]};
  const mem::PartitionEnforcement enforcement =
      kAllEnforcements[static_cast<std::size_t>(state.range(1))];
  mem::CacheCore core(geometry, 4, enforcement);
  Rng rng(1);
  for (auto _ : state) {
    const auto tid = static_cast<ThreadId>(rng.below(4));
    const std::uint64_t block = rng.below(1u << 16);
    if (enforcement == mem::PartitionEnforcement::kSetColoring) {
      benchmark::DoNotOptimize(core.access_in_set(
          tid, block, static_cast<std::uint32_t>(block & 255),
          AccessType::kRead));
    } else {
      benchmark::DoNotOptimize(
          core.access(tid, block * 64, AccessType::kRead));
    }
  }
}
BENCHMARK(BM_HotPath)->Apply(hot_path_args);

void BM_Retarget(benchmark::State& state) {
  mem::CacheCore cache({.sets = 256, .ways = 64, .line_bytes = 64}, 4,
                       kEvictionControl);
  const std::vector<std::uint32_t> a = {32, 16, 8, 8};
  const std::vector<std::uint32_t> b = {16, 16, 16, 16};
  bool flip = false;
  for (auto _ : state) {
    cache.set_targets(flip ? a : b);
    flip = !flip;
  }
}
BENCHMARK(BM_Retarget);

}  // namespace

BENCHMARK_MAIN();
