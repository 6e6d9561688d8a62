// The streaming-percentile sketch behind serve-mode SLO telemetry: exact
// small-N agreement with metrics::Samples, bounded relative error after the
// bucket migration, bit-determinism, and snapshot round-tripping.
#include "metrics/sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace nu::metrics {
namespace {

const std::vector<double> kQuantiles{0.0,  0.1,  0.25, 0.5, 0.75,
                                     0.9,  0.95, 0.99, 0.999, 1.0};

TEST(PercentileSketchTest, EmptyAndSingle) {
  PercentileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  sketch.Add(3.5);
  EXPECT_EQ(sketch.count(), 1u);
  for (const double q : kQuantiles) {
    EXPECT_DOUBLE_EQ(sketch.Quantile(q), 3.5) << "q=" << q;
  }
}

TEST(PercentileSketchTest, ExactPhaseMatchesSamplesBitwise) {
  // Below exact_capacity the sketch stores values verbatim and must agree
  // EXACTLY (same interpolation) with the all-values Samples implementation.
  Rng rng(7);
  PercentileSketch sketch;
  Samples samples;
  for (std::size_t i = 0; i < 200; ++i) {
    const double v = rng.Uniform(0.0, 50.0);
    sketch.Add(v);
    samples.Add(v);
  }
  ASSERT_FALSE(sketch.bucketed());
  for (const double q : kQuantiles) {
    EXPECT_DOUBLE_EQ(sketch.Quantile(q), samples.Percentile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(sketch.min(), samples.min());
  EXPECT_DOUBLE_EQ(sketch.max(), samples.max());
  EXPECT_DOUBLE_EQ(sketch.mean(), samples.mean());
}

TEST(PercentileSketchTest, BoundedRelativeErrorOnMillionSamples) {
  // After migration to log-spaced buckets, the relative quantile error is
  // bounded by sqrt(growth) - 1. Check against the exact answer on a
  // million-value stream spanning four orders of magnitude.
  Rng rng(11);
  PercentileSketch sketch;
  Samples samples;
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    // Log-uniform over [1e-2, 1e2]: exercises many buckets.
    const double v = std::pow(10.0, rng.Uniform(-2.0, 2.0));
    sketch.Add(v);
    samples.Add(v);
  }
  ASSERT_TRUE(sketch.bucketed());
  const double bound = std::sqrt(sketch.options().growth) - 1.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double exact = samples.Percentile(q);
    const double approx = sketch.Quantile(q);
    EXPECT_LE(std::abs(approx - exact) / exact, bound) << "q=" << q;
  }
  // Extremes report the true observed min/max, not bucket midpoints.
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), samples.min());
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), samples.max());
}

TEST(PercentileSketchTest, DeterministicAcrossInstances) {
  // No randomness anywhere: the same value sequence gives bit-identical
  // answers from independently constructed sketches.
  Rng rng_a(13);
  Rng rng_b(13);
  PercentileSketch a;
  PercentileSketch b;
  for (std::size_t i = 0; i < 5000; ++i) {
    a.Add(rng_a.Uniform(0.0, 100.0));
    b.Add(rng_b.Uniform(0.0, 100.0));
  }
  for (const double q : kQuantiles) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), b.Quantile(q)) << "q=" << q;
  }
}

TEST(PercentileSketchTest, NegativeValuesClampToZero) {
  PercentileSketch sketch;
  sketch.Add(-1.0);
  sketch.Add(2.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 0.0);
}

void RoundTripsBitwise(const PercentileSketch& sketch) {
  BinWriter w;
  sketch.SaveState(w);
  const std::string bytes = w.buffer();

  PercentileSketch restored(sketch.options());
  BinReader r(bytes);
  restored.LoadState(r);

  EXPECT_EQ(restored.count(), sketch.count());
  EXPECT_EQ(restored.bucketed(), sketch.bucketed());
  for (const double q : kQuantiles) {
    EXPECT_DOUBLE_EQ(restored.Quantile(q), sketch.Quantile(q)) << "q=" << q;
  }
  // Saving the restored sketch reproduces the same bytes: the round trip
  // is lossless, not merely quantile-equivalent.
  BinWriter w2;
  restored.SaveState(w2);
  EXPECT_EQ(w2.buffer(), bytes);
}

TEST(PercentileSketchTest, SaveLoadRoundTripExactPhase) {
  Rng rng(17);
  PercentileSketch sketch;
  for (std::size_t i = 0; i < 100; ++i) sketch.Add(rng.Uniform(0.0, 10.0));
  ASSERT_FALSE(sketch.bucketed());
  RoundTripsBitwise(sketch);
}

TEST(PercentileSketchTest, SaveLoadRoundTripBucketedPhase) {
  Rng rng(19);
  PercentileSketch sketch;
  for (std::size_t i = 0; i < 10'000; ++i) {
    sketch.Add(rng.Uniform(0.0, 1000.0));
  }
  ASSERT_TRUE(sketch.bucketed());
  RoundTripsBitwise(sketch);
}

TEST(PercentileSketchTest, RestoredSketchContinuesIdentically) {
  // Snapshot mid-stream, keep feeding both the original and the restored
  // copy, and require identical answers — the property simulator snapshots
  // rely on.
  Rng rng(23);
  PercentileSketch original;
  for (std::size_t i = 0; i < 400; ++i) {
    original.Add(rng.Uniform(0.0, 60.0));
  }
  BinWriter w;
  original.SaveState(w);
  PercentileSketch restored(original.options());
  BinReader r(w.buffer());
  restored.LoadState(r);

  Rng tail(29);
  for (std::size_t i = 0; i < 400; ++i) {
    const double v = tail.Uniform(0.0, 60.0);
    original.Add(v);
    restored.Add(v);
  }
  for (const double q : kQuantiles) {
    EXPECT_DOUBLE_EQ(restored.Quantile(q), original.Quantile(q)) << "q=" << q;
  }
}

TEST(PercentileSketchTest, QuantilesMatchOneAtATime) {
  // One sort for several quantiles answers exactly what one call per
  // quantile does, in both phases.
  Rng rng(31);
  PercentileSketch sketch;
  for (std::size_t i = 0; i < 1000; ++i) {
    sketch.Add(rng.Uniform(0.0, 80.0));
    if (i != 0 && i != 255 && i != 999) continue;
    std::vector<double> got(kQuantiles.size());
    sketch.Quantiles(kQuantiles, got);
    for (std::size_t j = 0; j < kQuantiles.size(); ++j) {
      EXPECT_EQ(got[j], sketch.Quantile(kQuantiles[j])) << "n=" << i + 1;
    }
  }
}

/// A sketch payload in SaveState's layout.
std::string Payload(bool bucketed, std::uint64_t count,
                    const std::vector<double>& exact,
                    const std::vector<std::uint64_t>& buckets) {
  BinWriter w;
  w.Bool(bucketed);
  w.U64(count);
  w.F64(1.0);  // sum
  w.F64(0.5);  // min
  w.F64(2.0);  // max
  w.Seq(exact, [](BinWriter& out, double v) { out.F64(v); });
  w.Seq(buckets, [](BinWriter& out, std::uint64_t c) { out.U64(c); });
  return w.buffer();
}

void ExpectCorrupt(const std::string& bytes) {
  PercentileSketch sketch(PercentileSketch::Options{.exact_capacity = 4});
  BinReader r(bytes);
  EXPECT_THROW(sketch.LoadState(r), CorruptInput);
}

TEST(PercentileSketchTest, LoadRejectsValuesThatDisagreeWithCount) {
  // Exact phase with a count but no values: Quantile would read
  // sorted[size() - 1] of an empty row.
  ExpectCorrupt(Payload(false, 3, {}, {}));
  ExpectCorrupt(Payload(false, 1, {1.0, 2.0}, {}));
  // More exact values than the exact phase ever holds.
  ExpectCorrupt(Payload(false, 5, {1, 2, 3, 4, 5}, {}));
  ExpectCorrupt(Payload(false, 1, {1.0}, {1}));
  // Bucket phase: leftover exact values, or counts that miss the total,
  // including a sum that would wrap back onto it.
  ExpectCorrupt(Payload(true, 2, {1.0}, {0, 2}));
  ExpectCorrupt(Payload(true, 3, {}, {1, 1}));
  ExpectCorrupt(Payload(true, 2, {}, {3, ~std::uint64_t{0}}));

  // Consistent payloads of both phases load.
  for (const std::string& bytes :
       {Payload(false, 2, {1.0, 2.0}, {}), Payload(true, 3, {}, {1, 0, 2})}) {
    PercentileSketch sketch(PercentileSketch::Options{.exact_capacity = 4});
    BinReader r(bytes);
    sketch.LoadState(r);
    EXPECT_GE(sketch.Quantile(0.5), 0.5);
  }
}

}  // namespace
}  // namespace nu::metrics
