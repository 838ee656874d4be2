// Tests for the CNN key encoder: numerical gradient checks of every layer,
// bitwise pins of the vectorised conv/dense kernels against the naive loop
// nests they replaced, contrastive training convergence, INT8 quantization
// fidelity, and the metric property the memoization system needs (similar
// chunks → nearby keys).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "encoder/encoder.hpp"
#include "encoder/layers.hpp"

namespace mlr::encoder {
namespace {

FeatureMap random_fm(i64 c, i64 h, i64 w, Rng& rng) {
  FeatureMap fm(c, h, w);
  for (auto& x : fm.v) x = float(rng.normal());
  return fm;
}

// Scalar loss = sum of elements; checks dL/dw by finite differences.
TEST(Conv2D, WeightGradientMatchesFiniteDifference) {
  Rng rng(1);
  Conv2D conv(2, 3, 3, 1, rng);
  auto in = random_fm(2, 6, 6, rng);
  auto out = conv.forward(in);
  FeatureMap dout(out.c, out.h, out.w);
  for (auto& x : dout.v) x = 1.0f;  // L = sum(out)
  (void)conv.backward(in, dout);
  const double eps = 1e-3;
  for (std::size_t wi : {0ul, 7ul, 25ul, conv.w.size() - 1}) {
    const float orig = conv.w[wi];
    conv.w[wi] = orig + float(eps);
    auto op = conv.forward(in);
    conv.w[wi] = orig - float(eps);
    auto om = conv.forward(in);
    conv.w[wi] = orig;
    double lp = 0, lm = 0;
    for (auto v : op.v) lp += v;
    for (auto v : om.v) lm += v;
    const double want = (lp - lm) / (2 * eps);
    EXPECT_NEAR(conv.gw[wi], want, 1e-2 * std::max(1.0, std::abs(want)))
        << "w index " << wi;
  }
}

TEST(Conv2D, InputGradientMatchesFiniteDifference) {
  Rng rng(2);
  Conv2D conv(1, 2, 3, 1, rng);
  auto in = random_fm(1, 5, 5, rng);
  auto out = conv.forward(in);
  FeatureMap dout(out.c, out.h, out.w);
  for (auto& x : dout.v) x = 1.0f;
  auto din = conv.backward(in, dout);
  const double eps = 1e-3;
  for (std::size_t ii : {0ul, 12ul, 24ul}) {
    const float orig = in.v[ii];
    in.v[ii] = orig + float(eps);
    auto op = conv.forward(in);
    in.v[ii] = orig - float(eps);
    auto om = conv.forward(in);
    in.v[ii] = orig;
    double lp = 0, lm = 0;
    for (auto v : op.v) lp += v;
    for (auto v : om.v) lm += v;
    EXPECT_NEAR(din.v[ii], (lp - lm) / (2 * eps), 1e-2);
  }
}

TEST(Conv2D, StrideReducesOutput) {
  Rng rng(3);
  Conv2D conv(1, 1, 3, 2, rng);
  auto in = random_fm(1, 8, 8, rng);
  auto out = conv.forward(in);
  EXPECT_EQ(out.h, 4);
  EXPECT_EQ(out.w, 4);
}

TEST(Dense, GradientsMatchFiniteDifference) {
  Rng rng(4);
  Dense fc(6, 4, rng);
  std::vector<float> in(6);
  for (auto& x : in) x = float(rng.normal());
  std::vector<float> dout(4, 1.0f);
  (void)fc.backward(in, dout);
  const double eps = 1e-3;
  for (std::size_t wi : {0ul, 11ul, 23ul}) {
    const float orig = fc.w[wi];
    fc.w[wi] = orig + float(eps);
    auto op = fc.forward(in);
    fc.w[wi] = orig - float(eps);
    auto om = fc.forward(in);
    fc.w[wi] = orig;
    double lp = 0, lm = 0;
    for (auto v : op) lp += v;
    for (auto v : om) lm += v;
    EXPECT_NEAR(fc.gw[wi], (lp - lm) / (2 * eps), 1e-2);
  }
}

TEST(Relu, ForwardBackwardMask) {
  std::vector<float> v{-1.0f, 2.0f, -0.5f, 3.0f};
  relu_forward(v);
  EXPECT_EQ(v, (std::vector<float>{0, 2, 0, 3}));
  std::vector<float> g{1, 1, 1, 1};
  relu_backward(v, g);
  EXPECT_EQ(g, (std::vector<float>{0, 1, 0, 1}));
}

TEST(AvgPool, ForwardAndBackwardConserveMass) {
  Rng rng(5);
  auto in = random_fm(2, 4, 4, rng);
  auto out = avgpool2(in);
  EXPECT_EQ(out.h, 2);
  double sin = 0, sout = 0;
  for (auto v : in.v) sin += v;
  for (auto v : out.v) sout += v;
  EXPECT_NEAR(sout * 4.0, sin, 1e-4);
  FeatureMap dout(out.c, out.h, out.w);
  for (auto& x : dout.v) x = 1.0f;
  auto din = avgpool2_backward(in, dout);
  double sdin = 0;
  for (auto v : din.v) sdin += v;
  EXPECT_NEAR(sdin, double(out.size()), 1e-4);  // each out grad spreads to 4×0.25
}

TEST(Adam, DecreasesQuadratic) {
  // Minimize f(x) = x² from x=5.
  std::vector<float> x{5.0f};
  std::vector<float> g(1);
  Adam opt(1, 0.1);
  for (int i = 0; i < 200; ++i) {
    g[0] = 2.0f * x[0];
    opt.step(x, g);
    EXPECT_EQ(g[0], 0.0f);  // gradient accumulator consumed
  }
  EXPECT_LT(std::abs(x[0]), 0.3f);
}

// ---------------------------------------------------------------------------
// Bitwise pins: the naive loop nests the kernels replaced, kept as oracles.

FeatureMap naive_conv_forward(const Conv2D& conv, const FeatureMap& in) {
  const i64 k = conv.ksize(), s = conv.shape().stride, pad = k / 2;
  FeatureMap out(conv.out_ch(), conv.out_h(in.h), conv.out_w(in.w));
  for (i64 oc = 0; oc < conv.out_ch(); ++oc) {
    for (i64 oy = 0; oy < out.h; ++oy) {
      for (i64 ox = 0; ox < out.w; ++ox) {
        double acc = conv.b[size_t(oc)];
        const i64 iy0 = oy * s - pad;
        const i64 ix0 = ox * s - pad;
        for (i64 ic = 0; ic < conv.in_ch(); ++ic) {
          for (i64 ky = 0; ky < k; ++ky) {
            const i64 iy = iy0 + ky;
            if (iy < 0 || iy >= in.h) continue;
            for (i64 kx = 0; kx < k; ++kx) {
              const i64 ix = ix0 + kx;
              if (ix < 0 || ix >= in.w) continue;
              acc += double(conv.w[size_t(((oc * conv.in_ch() + ic) * k + ky) *
                                              k + kx)]) *
                     double(in.at(ic, iy, ix));
            }
          }
        }
        out.at(oc, oy, ox) = float(acc);
      }
    }
  }
  return out;
}

// Accumulates into gw/gb like Conv2D::backward; returns din.
FeatureMap naive_conv_backward(const Conv2D& conv, std::vector<float>& gw,
                               std::vector<float>& gb, const FeatureMap& in,
                               const FeatureMap& dout) {
  const i64 k = conv.ksize(), s = conv.shape().stride, pad = k / 2;
  FeatureMap din(in.c, in.h, in.w);
  for (i64 oc = 0; oc < conv.out_ch(); ++oc) {
    for (i64 oy = 0; oy < dout.h; ++oy) {
      for (i64 ox = 0; ox < dout.w; ++ox) {
        const float g = dout.at(oc, oy, ox);
        if (g == 0.0f) continue;
        gb[size_t(oc)] += g;
        const i64 iy0 = oy * s - pad;
        const i64 ix0 = ox * s - pad;
        for (i64 ic = 0; ic < conv.in_ch(); ++ic) {
          for (i64 ky = 0; ky < k; ++ky) {
            const i64 iy = iy0 + ky;
            if (iy < 0 || iy >= in.h) continue;
            for (i64 kx = 0; kx < k; ++kx) {
              const i64 ix = ix0 + kx;
              if (ix < 0 || ix >= in.w) continue;
              const auto wi =
                  size_t(((oc * conv.in_ch() + ic) * k + ky) * k + kx);
              gw[wi] += g * in.at(ic, iy, ix);
              din.at(ic, iy, ix) += g * conv.w[wi];
            }
          }
        }
      }
    }
  }
  return din;
}

std::vector<float> naive_dense_forward(const Dense& fc,
                                       const std::vector<float>& in) {
  std::vector<float> out(static_cast<size_t>(fc.out_dim()));
  for (i64 o = 0; o < fc.out_dim(); ++o) {
    double acc = fc.b[size_t(o)];
    const float* row = fc.w.data() + size_t(o * fc.in_dim());
    for (i64 i = 0; i < fc.in_dim(); ++i)
      acc += double(row[i]) * double(in[size_t(i)]);
    out[size_t(o)] = float(acc);
  }
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct ConvCase {
  i64 in_ch, out_ch, k, stride, h, w;
};

// Every shape the kernels could mishandle: both strides, k = 3 and 5,
// channel counts off the lane width, odd and sub-kernel inputs.
const ConvCase kConvCases[] = {
    {2, 32, 5, 2, 32, 32},  // conv1
    {32, 64, 3, 1, 8, 8},   // conv2
    {3, 5, 3, 1, 5, 7},     {3, 17, 5, 2, 5, 7},  {2, 3, 5, 1, 3, 3},
    {4, 20, 3, 2, 3, 3},    {2, 16, 5, 1, 1, 1},  {1, 1, 3, 2, 1, 1},
    {5, 33, 5, 2, 7, 5},    {3, 7, 1, 1, 4, 6},
};

// A double accumulator hides most reorderings once the sum is rounded to
// float. These operands do not: weights ±1 and inputs drawn from
// {±2^40, ±1, ±2^-20} make every product exact, a 2^-20 term is absorbed
// whenever a 2^40 term sits in the partial sum, and the 2^40 terms often
// cancel exactly — so the rounded result depends on the order the terms
// are added in.
void make_order_sensitive(std::vector<float>& w, std::vector<float>& in,
                          Rng& rng) {
  for (auto& x : w) x = rng.uniform() < 0.5 ? -1.0f : 1.0f;
  for (auto& x : in) {
    const float mag = std::ldexp(1.0f, std::array{40, 0, -20}[size_t(
                                           rng.uniform_int(0, 2))]);
    x = rng.uniform() < 0.5 ? -mag : mag;
  }
}

TEST(ConvKernel, ForwardBitIdenticalToNaiveLoops) {
  Rng rng(20);
  for (const auto& c : kConvCases) {
    for (const bool sensitive : {false, true}) {
      Conv2D conv(c.in_ch, c.out_ch, c.k, c.stride, rng);
      for (auto& x : conv.b) x = float(rng.normal());
      auto in = random_fm(c.in_ch, c.h, c.w, rng);
      if (sensitive) make_order_sensitive(conv.w, in.v, rng);
      EXPECT_TRUE(
          same_bits(conv.forward(in).v, naive_conv_forward(conv, in).v))
          << c.in_ch << "->" << c.out_ch << " k" << c.k << " s" << c.stride
          << " " << c.h << "x" << c.w << (sensitive ? " order-sensitive" : "");
    }
  }
}

TEST(ConvKernel, BackwardBitIdenticalToNaiveLoops) {
  Rng rng(21);
  for (const auto& c : kConvCases) {
    Conv2D conv(c.in_ch, c.out_ch, c.k, c.stride, rng);
    const auto in = random_fm(c.in_ch, c.h, c.w, rng);
    // dout as after a ReLU: negatives zeroed, plus exact ±0 entries.
    auto dout = random_fm(c.out_ch, conv.out_h(c.h), conv.out_w(c.w), rng);
    relu_forward(dout.v);
    for (std::size_t i = 0; i < dout.v.size(); i += 7) dout.v[i] = 0.0f;
    for (std::size_t i = 3; i < dout.v.size(); i += 11) dout.v[i] = -0.0f;
    // Non-zero starting accumulators: backward adds onto them.
    for (auto& x : conv.gw) x = float(rng.normal());
    for (auto& x : conv.gb) x = float(rng.normal());
    auto gw = conv.gw, gb = conv.gb;
    const auto want_din = naive_conv_backward(conv, gw, gb, in, dout);
    // Second accumulation round, as train_pair's two backward passes do.
    (void)naive_conv_backward(conv, gw, gb, in, dout);
    const auto din = conv.backward(in, dout);
    conv.backward_params(in, dout);
    const std::string what = std::to_string(c.in_ch) + "->" +
                             std::to_string(c.out_ch) + " k" +
                             std::to_string(c.k) + " s" +
                             std::to_string(c.stride);
    EXPECT_TRUE(same_bits(din.v, want_din.v)) << what;
    EXPECT_TRUE(same_bits(conv.gw, gw)) << what;
    EXPECT_TRUE(same_bits(conv.gb, gb)) << what;
  }
}

TEST(ConvKernel, DenseForwardBitIdenticalToNaiveLoop) {
  Rng rng(22);
  for (auto [in_dim, out_dim] :
       {std::pair<i64, i64>{1024, 60}, {7, 1}, {5, 3}, {9, 4}, {1, 9}}) {
    Dense fc(in_dim, out_dim, rng);
    for (auto& x : fc.b) x = float(rng.normal());
    std::vector<float> in(static_cast<size_t>(in_dim));
    for (auto& x : in) x = float(rng.normal());
    EXPECT_TRUE(same_bits(fc.forward(in), naive_dense_forward(fc, in)))
        << in_dim << "->" << out_dim;
    make_order_sensitive(fc.w, in, rng);
    EXPECT_TRUE(same_bits(fc.forward(in), naive_dense_forward(fc, in)))
        << in_dim << "->" << out_dim << " order-sensitive";
  }
}

// ---------------------------------------------------------------------------
// Encoder end-to-end.

std::vector<cfloat> random_chunk(i64 n, Rng& rng) {
  std::vector<cfloat> v(static_cast<size_t>(n));
  for (auto& x : v) x = cfloat(float(rng.normal()), float(rng.normal()));
  return v;
}

u64 hash_floats(u64 h, const std::vector<float>& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(float));
}

// 50 contrastive steps, then INT8 freezing: the trained weights, the float
// keys and the INT8 keys must hash to the values the naive loop nests
// produced (recorded before the kernels were vectorised).
TEST(CnnEncoder, TrainedWeightsAndKeysPinned) {
  CnnEncoder enc;
  Rng rng(41);
  std::vector<std::vector<cfloat>> samples;
  for (int i = 0; i < 6; ++i) samples.push_back(random_chunk(24 * 40, rng));
  const double tail = enc.train(samples, 24, 40, 50, 43);
  EXPECT_EQ(tail, 15.565185977959427);
  u64 wh = kFnvOffsetBasis;
  for (const auto* v : {&enc.conv1().w, &enc.conv1().b, &enc.conv2().w,
                        &enc.conv2().b, &enc.fc().w, &enc.fc().b})
    wh = hash_floats(wh, *v);
  EXPECT_EQ(wh, 0x4c559a143ab41f99ull);

  const std::pair<i64, i64> shapes[] = {{24, 40}, {5, 7}, {64, 64}, {1, 1},
                                        {3, 3}};
  std::vector<std::vector<cfloat>> probes{samples[0]};
  for (std::size_t s = 1; s < std::size(shapes); ++s)
    probes.push_back(random_chunk(shapes[s].first * shapes[s].second, rng));
  u64 fh = kFnvOffsetBasis;
  for (std::size_t s = 0; s < std::size(shapes); ++s)
    fh = hash_floats(fh, enc.encode({shapes[s].first, shapes[s].second,
                                     probes[s]}));
  EXPECT_EQ(fh, 0x3752ca5dfaae3f6bull);
  enc.quantize();
  u64 qh = kFnvOffsetBasis;
  for (std::size_t s = 0; s < std::size(shapes); ++s)
    qh = hash_floats(qh, enc.encode_quantized({shapes[s].first,
                                               shapes[s].second, probes[s]}));
  EXPECT_EQ(qh, 0x05ff6a7063d875eeull);
}

TEST(CnnEncoder, OutputDimensionAndDeterminism) {
  CnnEncoder enc;
  Rng rng(6);
  auto chunk = random_chunk(16 * 16, rng);
  auto z1 = enc.encode({16, 16, chunk});
  auto z2 = enc.encode({16, 16, chunk});
  ASSERT_EQ(z1.size(), 60u);
  EXPECT_EQ(z1, z2);
}

TEST(CnnEncoder, HandlesArbitraryChunkShapes) {
  CnnEncoder enc;
  Rng rng(7);
  for (auto [r, c] : {std::pair<i64, i64>{8, 8}, {12, 40}, {64, 64}, {5, 7}}) {
    auto chunk = random_chunk(r * c, rng);
    auto z = enc.encode({r, c, chunk});
    EXPECT_EQ(z.size(), 60u);
  }
}

TEST(CnnEncoder, IdenticalChunksEncodeIdentically) {
  CnnEncoder enc;
  Rng rng(8);
  auto chunk = random_chunk(32 * 32, rng);
  auto za = enc.encode({32, 32, chunk});
  auto zb = enc.encode({32, 32, chunk});
  double d = 0;
  for (std::size_t i = 0; i < za.size(); ++i)
    d += double(za[i] - zb[i]) * (za[i] - zb[i]);
  EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(CnnEncoder, ContrastiveTrainingReducesLoss) {
  CnnEncoder enc({.input_hw = 16, .embed_dim = 16, .lr = 3e-4});
  Rng rng(9);
  std::vector<std::vector<cfloat>> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(random_chunk(16 * 16, rng));
  // Loss of first steps vs trained tail.
  double first = 0;
  Rng prng(10);
  for (int s = 0; s < 8; ++s) {
    const auto i = size_t(prng.uniform_int(0, 10));
    first += enc.train_pair({16, 16, samples[i]}, {16, 16, samples[i + 1]});
  }
  first /= 8;
  const double tail = enc.train(samples, 16, 16, 150, 11);
  EXPECT_LT(tail, first);
}

TEST(CnnEncoder, TrainedEncoderPreservesSimilarityOrdering) {
  // After training, a near-duplicate chunk must embed closer than an
  // unrelated chunk — the property the τ threshold relies on.
  CnnEncoder enc({.input_hw = 16, .embed_dim = 16, .lr = 3e-4});
  Rng rng(12);
  std::vector<std::vector<cfloat>> samples;
  for (int i = 0; i < 10; ++i) samples.push_back(random_chunk(16 * 16, rng));
  enc.train(samples, 16, 16, 200, 13);
  auto base = samples[0];
  auto near = base;
  for (auto& x : near) x += cfloat(float(rng.normal(0, 0.01)), 0);
  const auto& far = samples[5];
  auto zb = enc.encode({16, 16, base});
  auto zn = enc.encode({16, 16, near});
  auto zf = enc.encode({16, 16, far});
  auto dist = [](const std::vector<float>& a, const std::vector<float>& b) {
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
      s += double(a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(s);
  };
  EXPECT_LT(dist(zb, zn), dist(zb, zf));
}

TEST(CnnEncoder, QuantizationPreservesEmbeddingsApproximately) {
  CnnEncoder enc({.input_hw = 16, .embed_dim = 16});
  Rng rng(14);
  auto chunk = random_chunk(16 * 16, rng);
  auto zf = enc.encode({16, 16, chunk});
  enc.quantize();
  ASSERT_TRUE(enc.quantized());
  auto zq = enc.encode_quantized({16, 16, chunk});
  double num = 0, den = 0;
  for (std::size_t i = 0; i < zf.size(); ++i) {
    num += double(zf[i] - zq[i]) * (zf[i] - zq[i]);
    den += double(zf[i]) * zf[i];
  }
  EXPECT_LT(std::sqrt(num / std::max(den, 1e-12)), 0.05);  // <5 % relative
}

TEST(CnnEncoder, TrainAfterQuantizeRejected) {
  CnnEncoder enc({.input_hw = 16, .embed_dim = 8});
  enc.quantize();
  Rng rng(15);
  auto a = random_chunk(16 * 16, rng), b = random_chunk(16 * 16, rng);
  EXPECT_THROW(enc.train_pair({16, 16, a}, {16, 16, b}), mlr::Error);
}

TEST(CnnEncoder, EncodeFlopsTinyVsFft) {
  CnnEncoder enc;
  // Paper: CNN inference <1 % of total time. Sanity: a few MFLOPs.
  EXPECT_LT(enc.encode_flops(), 2.0e7);
  EXPECT_GT(enc.encode_flops(), 1.0e5);
}

TEST(AverageSlab, ReducesAlongFirstAxis) {
  Rng rng(16);
  auto slab = random_chunk(3 * 4 * 5, rng);
  auto avg = average_slab(slab, 3, 4, 5);
  ASSERT_EQ(avg.size(), 20u);
  for (i64 i = 0; i < 20; ++i) {
    cfloat want{};
    for (i64 s = 0; s < 3; ++s) want += slab[size_t(s * 20 + i)];
    want /= 3.0f;
    EXPECT_NEAR(std::abs(avg[size_t(i)] - want), 0.0, 1e-5);
  }
}

TEST(ChunkL2, MatchesDefinition) {
  std::vector<cfloat> a{{1, 0}, {0, 0}}, b{{0, 0}, {0, 1}};
  EXPECT_NEAR(chunk_l2(a, b), std::sqrt(2.0), 1e-9);
}

}  // namespace
}  // namespace mlr::encoder
