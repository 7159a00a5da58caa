// Microbenchmarks for the SIMD kernel layer (src/warehouse/kernels.h,
// common/simd.h; DESIGN.md §15): per-ISA-tier rows/s for the predicate
// filter/refine kernels, the lane-8 aggregation kernels, the XOR-delta
// double codec, LZSS compression with the vector match scanner, and the
// sliced CRC-32 of the archive and the shard wire. Each kernel's output is
// byte-compared against the scalar tier (CRC-32: a bytewise reference)
// before timing —
// a divergence writes "bit_identical": 0 into BENCH_kernels.json, which
// scripts/check.sh treats as a failure. Speedups are best-of-reps over a
// cache-resident working set, so they measure kernel arithmetic, not DRAM.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/checksum.h"
#include "common/simd.h"
#include "compress/lzss.h"
#include "warehouse/kernels.h"

namespace {

using namespace supremm;
namespace simd = common::simd;
namespace kernels = warehouse::kernels;

constexpr std::size_t kRows = 1 << 16;  // 512 KB of doubles: L2-resident
constexpr int kIters = 100;             // calls per timed rep
constexpr int kReps = 5;

std::string bytes_of(const void* p, std::size_t n) {
  return std::string(static_cast<const char*>(p), n);
}

struct TierCase {
  simd::Tier tier;
  const char* name;
};

std::vector<TierCase> available_tiers() {
  std::vector<TierCase> out = {{simd::Tier::kScalar, "scalar"}};
  if (simd::hardware_tier() >= simd::Tier::kSse2) out.push_back({simd::Tier::kSse2, "sse2"});
  if (simd::hardware_tier() >= simd::Tier::kAvx2) out.push_back({simd::Tier::kAvx2, "avx2"});
  return out;
}

}  // namespace

int main() {
  bench::print_experiment_header(
      "SIMD kernel layer: per-tier throughput and bit identity",
      "query/codec kernels must be bit-identical across ISA tiers so runtime "
      "dispatch never changes results (DESIGN.md sec 15)");

  const auto tiers = available_tiers();
  std::printf("[setup] hardware tier: %s; %zu rows per call, %d calls/rep, best of %d reps\n",
              std::string(simd::tier_name(simd::hardware_tier())).c_str(), kRows, kIters,
              kReps);

  std::mt19937_64 rng(bench::kSeed);
  std::uniform_real_distribution<double> ud(0.0, 100.0);
  std::vector<double> vals(kRows);
  std::vector<double> weights(kRows);
  std::vector<std::int32_t> codes(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    vals[i] = ud(rng);
    weights[i] = ud(rng) * 0.01;
    codes[i] = static_cast<std::int32_t>(rng() & 7);
  }
  // Refine input: every other row survives a notional earlier predicate.
  std::vector<std::uint32_t> sel_in(kRows / 2);
  for (std::size_t i = 0; i < sel_in.size(); ++i) sel_in[i] = static_cast<std::uint32_t>(2 * i);

  std::vector<std::uint32_t> out_idx(kRows);
  std::size_t out_count = 0;
  double lanes[kernels::kLanes];
  double wlanes[kernels::kLanes];

  bench::BenchJson json("kernels");
  bool all_identical = true;

  // Runs one kernel across tiers: `call` executes one pass into the shared
  // buffers, `digest` snapshots the output. The scalar tier is the reference;
  // later tiers must reproduce its digest byte for byte.
  auto bench_kernel = [&](const char* name,
                          const std::function<void(const kernels::KernelTable&)>& call,
                          const std::function<std::string()>& digest) {
    std::string ref;
    double scalar_sec = 0.0;
    for (const TierCase& tc : tiers) {
      const kernels::KernelTable& kt = kernels::table_for(tc.tier);
      call(kt);
      const std::string d = digest();
      const bool identical = tc.tier == simd::Tier::kScalar || d == ref;
      if (tc.tier == simd::Tier::kScalar) ref = d;
      all_identical = all_identical && identical;
      const double sec = bench::time_call(kReps, kIters, [&] { call(kt); });
      if (tc.tier == simd::Tier::kScalar) scalar_sec = sec;
      const double rate = static_cast<double>(kRows) / sec;
      const double speedup = scalar_sec / sec;
      json.record(name)
          .str("tier", tc.name)
          .num("rows_per_s", rate)
          .num("speedup_vs_scalar", speedup)
          .num("bit_identical", identical ? 1.0 : 0.0);
      std::printf("[%-18s] %-6s %10.1f Mrows/s  %5.2fx  %s\n", name, tc.name, rate / 1e6,
                  speedup, identical ? "bits ok" : "BIT DIVERGENCE");
    }
  };

  const double lo = 25.0;
  const double hi = 75.0;
  const std::int32_t eq_code = 3;

  bench_kernel(
      "filter_f64_range",
      [&](const kernels::KernelTable& kt) {
        out_count = kt.filter_f64_range(vals.data(), 0, kRows, lo, hi, out_idx.data());
      },
      [&] { return bytes_of(out_idx.data(), out_count * 4) + std::to_string(out_count); });

  bench_kernel(
      "filter_codes_eq",
      [&](const kernels::KernelTable& kt) {
        out_count = kt.filter_codes_eq(codes.data(), 0, kRows, eq_code, out_idx.data());
      },
      [&] { return bytes_of(out_idx.data(), out_count * 4) + std::to_string(out_count); });

  bench_kernel(
      "refine_f64_range",
      [&](const kernels::KernelTable& kt) {
        out_count = kt.refine_f64_range(vals.data(), sel_in.data(), sel_in.size(), lo, hi,
                                        out_idx.data());
      },
      [&] { return bytes_of(out_idx.data(), out_count * 4) + std::to_string(out_count); });

  bench_kernel(
      "refine_codes_eq",
      [&](const kernels::KernelTable& kt) {
        out_count = kt.refine_codes_eq(codes.data(), sel_in.data(), sel_in.size(), eq_code,
                                       out_idx.data());
      },
      [&] { return bytes_of(out_idx.data(), out_count * 4) + std::to_string(out_count); });

  auto lanes_digest = [&] { return bytes_of(lanes, sizeof(lanes)); };

  bench_kernel(
      "sum_lanes",
      [&](const kernels::KernelTable& kt) {
        std::fill(lanes, lanes + kernels::kLanes, 0.0);
        kt.sum_lanes(vals.data(), nullptr, 0, kRows, lanes);
      },
      lanes_digest);

  // Gather variant: aggregate through the refine survivor list instead of a
  // contiguous slice (the post-predicate shape inside Query::run).
  const std::size_t nsel = sel_in.size();
  bench_kernel(
      "sum_lanes_gather",
      [&](const kernels::KernelTable& kt) {
        std::fill(lanes, lanes + kernels::kLanes, 0.0);
        kt.sum_lanes(vals.data(), sel_in.data(), 0, nsel, lanes);
      },
      lanes_digest);

  bench_kernel(
      "min_lanes",
      [&](const kernels::KernelTable& kt) {
        std::fill(lanes, lanes + kernels::kLanes, std::numeric_limits<double>::infinity());
        kt.min_lanes(vals.data(), nullptr, 0, kRows, lanes);
      },
      lanes_digest);

  bench_kernel(
      "max_lanes",
      [&](const kernels::KernelTable& kt) {
        std::fill(lanes, lanes + kernels::kLanes, -std::numeric_limits<double>::infinity());
        kt.max_lanes(vals.data(), nullptr, 0, kRows, lanes);
      },
      lanes_digest);

  bench_kernel(
      "dot_lanes",
      [&](const kernels::KernelTable& kt) {
        std::fill(lanes, lanes + kernels::kLanes, 0.0);
        std::fill(wlanes, wlanes + kernels::kLanes, 0.0);
        kt.dot_lanes(vals.data(), weights.data(), nullptr, 0, kRows, wlanes, lanes);
      },
      [&] { return bytes_of(lanes, sizeof(lanes)) + bytes_of(wlanes, sizeof(wlanes)); });

  // The XOR-delta double codec and the LZSS match scanner dispatch on the
  // process-wide active tier rather than an explicit table.
  std::vector<std::uint64_t> deltas(kRows);
  {
    std::string ref;
    double scalar_sec = 0.0;
    for (const TierCase& tc : tiers) {
      simd::set_tier(tc.tier);
      simd::xor_delta_encode_f64(vals.data(), kRows, 0, deltas.data());
      const std::string d = bytes_of(deltas.data(), kRows * 8);
      const bool identical = tc.tier == simd::Tier::kScalar || d == ref;
      if (tc.tier == simd::Tier::kScalar) ref = d;
      all_identical = all_identical && identical;
      const double sec = bench::time_call(
          kReps, kIters, [&] { simd::xor_delta_encode_f64(vals.data(), kRows, 0, deltas.data()); });
      if (tc.tier == simd::Tier::kScalar) scalar_sec = sec;
      const double rate = static_cast<double>(kRows) / sec;
      json.record("xor_delta_encode")
          .str("tier", tc.name)
          .num("rows_per_s", rate)
          .num("speedup_vs_scalar", scalar_sec / sec)
          .num("bit_identical", identical ? 1.0 : 0.0);
      std::printf("[%-18s] %-6s %10.1f Mrows/s  %5.2fx  %s\n", "xor_delta_encode", tc.name,
                  rate / 1e6, scalar_sec / sec, identical ? "bits ok" : "BIT DIVERGENCE");
    }
  }

  // Decode is a serial prefix-XOR recurrence — one implementation for every
  // tier; its win over the old byte reader is bulk bounds checking.
  {
    std::vector<double> decoded(kRows);
    const auto* src = reinterpret_cast<const unsigned char*>(deltas.data());
    simd::xor_delta_decode_f64(src, kRows, 0, decoded.data());
    const bool identical = std::memcmp(decoded.data(), vals.data(), kRows * 8) == 0;
    all_identical = all_identical && identical;
    const double sec = bench::time_call(
        kReps, kIters, [&] { simd::xor_delta_decode_f64(src, kRows, 0, decoded.data()); });
    const double rate = static_cast<double>(kRows) / sec;
    json.record("xor_delta_decode")
        .str("tier", "any")
        .num("rows_per_s", rate)
        .num("speedup_vs_scalar", 1.0)
        .num("bit_identical", identical ? 1.0 : 0.0);
    std::printf("[%-18s] %-6s %10.1f Mrows/s  %5.2fx  %s (round-trips encode)\n",
                "xor_delta_decode", "any", rate / 1e6, 1.0,
                identical ? "bits ok" : "BIT DIVERGENCE");
  }

  // LZSS with the vector match scanner: a repetitive buffer with scattered
  // mutations, so the hash chains stay busy and matches run long.
  {
    std::string block(256, '\0');
    for (char& c : block) c = static_cast<char>(rng() & 0xff);
    std::string lz;
    lz.reserve(1 << 20);
    while (lz.size() < (1 << 20)) {
      lz += block;
      lz[lz.size() - 1 - (rng() % block.size())] ^= 1;
    }
    std::string ref;
    double scalar_sec = 0.0;
    for (const TierCase& tc : tiers) {
      simd::set_tier(tc.tier);
      const std::string d = compress::compress(lz);
      const bool identical = tc.tier == simd::Tier::kScalar || d == ref;
      if (tc.tier == simd::Tier::kScalar) ref = d;
      all_identical = all_identical && identical;
      const double best = bench::time_call(kReps, 1, [&] { (void)compress::compress(lz); });
      if (tc.tier == simd::Tier::kScalar) scalar_sec = best;
      const double mbs = static_cast<double>(lz.size()) / (1024.0 * 1024.0) / best;
      json.record("lzss_compress")
          .str("tier", tc.name)
          .num("mb_s", mbs)
          .num("speedup_vs_scalar", scalar_sec / best)
          .num("bit_identical", identical ? 1.0 : 0.0);
      std::printf("[%-18s] %-6s %10.1f MB/s     %5.2fx  %s\n", "lzss_compress", tc.name, mbs,
                  scalar_sec / best, identical ? "bits ok" : "BIT DIVERGENCE");
    }
  }

  simd::set_tier(simd::hardware_tier());

  // CRC-32 (slicing-by-8) over a buffer the size of a shard's partial frame
  // (704 KiB): one implementation for every tier, checked against an
  // in-bench byte-at-a-time table reference (the classic single-table loop);
  // its speedup is over that reference.
  {
    const std::string buf = bytes_of(vals.data(), kRows * 8) + bytes_of(weights.data(), kRows * 3);
    std::uint32_t table[256];
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      table[n] = c;
    }
    const auto bytewise = [&buf, &table] {
      std::uint32_t c = 0xffffffffu;
      for (const char ch : buf) c = table[(c ^ static_cast<std::uint8_t>(ch)) & 0xffu] ^ (c >> 8);
      return c ^ 0xffffffffu;
    };
    volatile std::uint32_t sink = 0;
    const double ref_sec = bench::time_call(kReps, kIters / 10, [&] { sink = bytewise(); });
    const std::uint32_t ref = sink;
    const double sec = bench::time_call(kReps, kIters, [&] { sink = common::crc32(buf); });
    const bool identical = sink == ref;
    all_identical = all_identical && identical;
    const double mbs = static_cast<double>(buf.size()) / (1024.0 * 1024.0) / sec;
    json.record("crc32")
        .str("tier", "any")
        .num("mb_s", mbs)
        .num("speedup_vs_scalar", ref_sec / sec)
        .num("bit_identical", identical ? 1.0 : 0.0);
    std::printf("[%-18s] %-6s %10.1f MB/s     %5.2fx  %s (vs bytewise reference)\n", "crc32",
                "any", mbs, ref_sec / sec, identical ? "bits ok" : "BIT DIVERGENCE");
  }

  json.write("BENCH_kernels.json");
  if (!all_identical) {
    std::fprintf(stderr, "FATAL: at least one kernel diverged from the scalar tier\n");
    return 1;
  }
  return 0;
}
