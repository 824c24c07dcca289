// Golden output digests: FNV-1a hashes of the raw output bytes of seeded
// transforms, one per serial-row route the executor drives (the one-worker
// classic fast path, four-step row sweeps, hierarchical column/row sweeps,
// Bluestein single and batch chains). The digests were recorded from the
// stage-by-stage codelet implementation these routes replaced, so they pin
// "bit-identical" against that code and not only between today's paths.
//
// Bit-identity across ISA tiers, worker counts and radices is part of the
// library contract, so every digest holds on any host. The hierarchical
// cases pin the leaf through a tuned schedule (the default leaf depends on
// the host's L2 size and a different leaf is a different split).

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "util/prng.hpp"

namespace c64fft::fft {
namespace {

std::uint64_t fnv1a(const void* p, std::size_t bytes) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::vector<cplx_t<T>> seeded(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx_t<T>> v(n);
  for (cplx_t<T>& x : v)
    x = cplx_t<T>(static_cast<T>(rng.next_double() * 2 - 1),
                  static_cast<T>(rng.next_double() * 2 - 1));
  return v;
}

template <typename T>
std::uint64_t digest(const std::vector<cplx_t<T>>& v) {
  return fnv1a(v.data(), v.size() * sizeof(cplx_t<T>));
}

ExecutorOptions opts(unsigned workers) {
  ExecutorOptions o;
  o.workers = workers;
  return o;
}

/// Pins the hierarchical leaf for (n, T) under every ISA tier, so the
/// split is the balanced one whatever the host's cache sizes.
template <typename T>
ScheduleSet pinned_leaf(std::uint64_t n, std::uint32_t leaf_log2) {
  ScheduleSet set;
  for (const util::IsaLevel isa : {util::IsaLevel::kScalar, util::IsaLevel::kAvx2,
                                   util::IsaLevel::kAvx512}) {
    TunedSchedule s;
    s.n = n;
    s.precision = precision_of<T>;
    s.isa = isa;
    s.hier_leaf_log2 = leaf_log2;
    set.insert(s);
  }
  return set;
}

template <typename T>
std::uint64_t forward_digest(FftExecutor& ex, std::uint64_t n,
                             std::uint64_t seed) {
  std::vector<cplx_t<T>> v = seeded<T>(n, seed);
  ex.forward(std::span<cplx_t<T>>(v));
  return digest(v);
}

template <typename T>
std::uint64_t inverse_digest(FftExecutor& ex, std::uint64_t n,
                             std::uint64_t seed) {
  std::vector<cplx_t<T>> v = seeded<T>(n, seed);
  ex.inverse(std::span<cplx_t<T>>(v));
  return digest(v);
}

TEST(GoldenDigest, SerialClassicRows) {
  FftExecutor ex(opts(1));
  EXPECT_EQ(forward_digest<double>(ex, 1u << 9, 9), 0x86c3d348d7362129ull);
  EXPECT_EQ(inverse_digest<double>(ex, 1u << 9, 9), 0x2a14aca1e2cb1cafull);
  EXPECT_EQ(forward_digest<double>(ex, 1u << 11, 11), 0x7d0d49f20c7b1543ull);
  EXPECT_EQ(inverse_digest<double>(ex, 1u << 11, 11), 0xadef515379fb9331ull);
  EXPECT_EQ(forward_digest<float>(ex, 1u << 9, 9), 0x416785fca5f726a5ull);
  EXPECT_EQ(inverse_digest<float>(ex, 1u << 9, 9), 0x2e30f27bf99d417cull);
  EXPECT_EQ(forward_digest<float>(ex, 1u << 11, 11), 0x1a13265c5de73fd0ull);
  EXPECT_EQ(inverse_digest<float>(ex, 1u << 11, 11), 0x9660643c7512ec7aull);
  EXPECT_EQ(ex.stats().four_step + ex.stats().hierarchical, 0u);
}

TEST(GoldenDigest, FourStep) {
  FftExecutor ex(opts(2));
  EXPECT_EQ(forward_digest<double>(ex, 1u << 18, 18), 0xc689f9544f5c447full);
  EXPECT_EQ(inverse_digest<double>(ex, 1u << 18, 18), 0xe13e8f7cd708a857ull);
  EXPECT_EQ(ex.stats().four_step, 2u);
}

TEST(GoldenDigest, Hierarchical) {
  FftExecutor ex(opts(2));
  ScheduleSet set = pinned_leaf<double>(1u << 20, 10);
  const ScheduleSet f32_set = pinned_leaf<float>(1u << 22, 11);
  for (const TunedSchedule& s : f32_set.entries()) set.insert(s);
  ex.set_schedules(set);
  EXPECT_EQ(forward_digest<double>(ex, 1u << 20, 20), 0x0fa217b735a1e343ull);
  EXPECT_EQ(inverse_digest<double>(ex, 1u << 20, 20), 0x92601573a9351da1ull);
  EXPECT_EQ(forward_digest<float>(ex, 1u << 22, 22), 0x0768c26077024531ull);
  EXPECT_EQ(ex.stats().hierarchical, 3u);
}

TEST(GoldenDigest, Bluestein) {
  FftExecutor ex(opts(2));
  EXPECT_EQ(forward_digest<double>(ex, 131071, 131071), 0x1576ca757c723d75ull);
  EXPECT_EQ(inverse_digest<double>(ex, 131071, 131071), 0x50156d148724ca51ull);
  EXPECT_EQ(ex.stats().bluestein, 2u);
}

template <typename T>
std::uint64_t bluestein_batch_digest(FftExecutor& ex, bool inverse) {
  constexpr std::uint64_t kBatch = 8;
  std::vector<std::vector<cplx_t<T>>> data;
  std::vector<std::span<cplx_t<T>>> spans;
  for (std::uint64_t b = 0; b < kBatch; ++b)
    data.push_back(seeded<T>(101, 101 + b));
  for (std::vector<cplx_t<T>>& v : data) spans.emplace_back(v);
  if (inverse)
    ex.inverse_batch(std::span<const std::span<cplx_t<T>>>(spans));
  else
    ex.forward_batch(std::span<const std::span<cplx_t<T>>>(spans));
  std::uint64_t h = 0;
  for (const std::vector<cplx_t<T>>& v : data) h = h * 31 + digest(v);
  return h;
}

TEST(GoldenDigest, BluesteinBatch) {
  FftExecutor ex(opts(2));
  EXPECT_EQ(bluestein_batch_digest<double>(ex, false), 0xfd86c78d84eb05acull);
  EXPECT_EQ(bluestein_batch_digest<double>(ex, true), 0xc20b2f08fb1ec3afull);
  EXPECT_EQ(bluestein_batch_digest<float>(ex, false), 0x3fffb71fe839c5f7ull);
  EXPECT_EQ(bluestein_batch_digest<float>(ex, true), 0xe1fdd97944ddc667ull);
  EXPECT_EQ(ex.stats().bluestein, 32u);
}

}  // namespace
}  // namespace c64fft::fft
