#include "encoder/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace mlr::encoder {

namespace {

/// Two double lanes. GCC/Clang vector arithmetic is lane-wise IEEE — the
/// same mul and add per lane a scalar loop performs, never fused or
/// reassociated.
using f64x2 = double __attribute__((vector_size(16)));
constexpr i64 kConvVecs = kConvLanes / 2;

inline f64x2 load2(const double* p) {
  f64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

void pack_conv(const ConvShape& shape, std::span<const float> w,
               std::span<const float> b, std::span<double> dst) {
  const i64 taps = shape.in_ch * shape.k * shape.k;
  const i64 cols = shape.lanes();
  MLR_CHECK(i64(w.size()) == shape.out_ch * taps &&
            i64(b.size()) == shape.out_ch &&
            i64(dst.size()) == shape.packed_size());
  std::fill(dst.begin(), dst.end(), 0.0);
  for (i64 oc = 0; oc < shape.out_ch; ++oc) {
    dst[size_t(oc)] = double(b[size_t(oc)]);
    for (i64 t = 0; t < taps; ++t)
      dst[size_t((1 + t) * cols + oc)] = double(w[size_t(oc * taps + t)]);
  }
}

void conv_forward(const ConvShape& shape, std::span<const double> packed,
                  const float* in, i64 h, i64 w, float* out) {
  MLR_CHECK(i64(packed.size()) == shape.packed_size());
  const i64 k = shape.k, s = shape.stride, pad = k / 2;
  const i64 oh = shape.out_dim(h), ow = shape.out_dim(w);
  const i64 cols = shape.lanes();
  for (i64 oy = 0; oy < oh; ++oy) {
    const i64 iy0 = oy * s - pad;
    const i64 ky0 = std::max<i64>(0, -iy0), ky1 = std::min<i64>(k, h - iy0);
    for (i64 ox = 0; ox < ow; ++ox) {
      const i64 ix0 = ox * s - pad;
      const i64 kx0 = std::max<i64>(0, -ix0);
      const i64 kx1 = std::min<i64>(k, w - ix0);
      for (i64 oc0 = 0; oc0 < cols; oc0 += kConvLanes) {
        const double* lane = packed.data() + oc0;
        f64x2 acc[kConvVecs];
        for (i64 v = 0; v < kConvVecs; ++v) acc[v] = load2(lane + 2 * v);
        for (i64 ic = 0; ic < shape.in_ch; ++ic) {
          for (i64 ky = ky0; ky < ky1; ++ky) {
            const float* xrow = in + (ic * h + iy0 + ky) * w;
            const double* wrow = lane + (1 + (ic * k + ky) * k) * cols;
            for (i64 kx = kx0; kx < kx1; ++kx) {
              const double x = xrow[ix0 + kx];
              const f64x2 xx = {x, x};
              const double* wt = wrow + kx * cols;
              for (i64 v = 0; v < kConvVecs; ++v)
                acc[v] += load2(wt + 2 * v) * xx;
            }
          }
        }
        double res[kConvLanes];
        std::memcpy(res, acc, sizeof res);
        const i64 n = std::min(kConvLanes, shape.out_ch - oc0);
        for (i64 j = 0; j < n; ++j)
          out[((oc0 + j) * oh + oy) * ow + ox] = float(res[j]);
      }
    }
  }
}

void dense_forward(const float* w, const float* b, i64 in_dim, i64 out_dim,
                   const float* x, float* y) {
  // Four independent accumulation chains; the last block re-reads row
  // out_dim−1 for its missing rows and discards them.
  constexpr i64 kJam = 4;
  for (i64 o0 = 0; o0 < out_dim; o0 += kJam) {
    double acc[kJam];
    const float* row[kJam];
    for (i64 j = 0; j < kJam; ++j) {
      const i64 o = std::min(o0 + j, out_dim - 1);
      acc[j] = b[o];
      row[j] = w + o * in_dim;
    }
    for (i64 i = 0; i < in_dim; ++i) {
      const double xi = x[i];
      for (i64 j = 0; j < kJam; ++j) acc[j] += double(row[j][i]) * xi;
    }
    for (i64 j = 0; j < kJam && o0 + j < out_dim; ++j)
      y[o0 + j] = float(acc[j]);
  }
}

Conv2D::Conv2D(i64 in_ch, i64 out_ch, i64 ksize, i64 stride, Rng& rng)
    : shape_{in_ch, out_ch, ksize, stride} {
  MLR_CHECK(in_ch >= 1 && out_ch >= 1 && ksize >= 1 && stride >= 1);
  const auto n = size_t(out_ch * in_ch * ksize * ksize);
  w.resize(n);
  gw.assign(n, 0.0f);
  b.assign(size_t(out_ch), 0.0f);
  gb.assign(size_t(out_ch), 0.0f);
  const double he = std::sqrt(2.0 / double(in_ch * ksize * ksize));
  for (auto& x : w) x = float(rng.normal(0.0, he));
}

FeatureMap Conv2D::forward(const FeatureMap& in) const {
  MLR_CHECK(in.c == shape_.in_ch);
  FeatureMap out(shape_.out_ch, out_h(in.h), out_w(in.w));
  forward(in.v.data(), in.h, in.w, out.v.data());
  return out;
}

void Conv2D::forward(const float* in, i64 h, i64 width, float* out) const {
  auto packed = pack_.buffer(size_t(shape_.packed_size()));
  pack_conv(shape_, w, b, packed);
  conv_forward(shape_, packed, in, h, width, out);
}

FeatureMap Conv2D::backward(const FeatureMap& in, const FeatureMap& dout) {
  FeatureMap din(in.c, in.h, in.w);
  backward_into(in, dout, &din);
  return din;
}

void Conv2D::backward_params(const FeatureMap& in, const FeatureMap& dout) {
  backward_into(in, dout, nullptr);
}

void Conv2D::backward_into(const FeatureMap& in, const FeatureMap& dout,
                           FeatureMap* din) {
  // Channel-last copies put a pixel's taps (kx, ic) for one ky in one
  // contiguous run of both the input and the weights, so the innermost loop
  // is a plain vectorisable axpy. Every destination still sees the naive
  // loop's sequence: gw[oc][ic][ky][kx] and gb[oc] get their terms in
  // ascending (oy, ox) with g == 0 skipped, din[ic][iy][ix] in ascending
  // (oc, oy, ox) — one tap per output pixel reaches a given input pixel.
  const i64 ic_n = shape_.in_ch, oc_n = shape_.out_ch, k = shape_.k;
  const i64 s = shape_.stride, pad = k / 2, h = in.h, wd = in.w;
  MLR_CHECK(in.c == ic_n && dout.c == oc_n && dout.h == out_h(h) &&
            dout.w == out_w(wd));
  const i64 nw = i64(w.size()), nin = in.size();
  auto buf = bwd_.buffer(size_t(nw + nin + (din ? nw + nin : 0)));
  float* gw_t = buf.data();                     // [oc][ky][kx][ic]
  float* in_t = gw_t + nw;                      // [iy][ix][ic]
  float* w_t = din ? in_t + nin : nullptr;      // [oc][ky][kx][ic]
  float* din_t = din ? w_t + nw : nullptr;      // [iy][ix][ic]
  const i64 kk = k * k, plane = h * wd;
  for (i64 oc = 0; oc < oc_n; ++oc)
    for (i64 ic = 0; ic < ic_n; ++ic)
      for (i64 t = 0; t < kk; ++t) {
        const i64 src = (oc * ic_n + ic) * kk + t;
        const i64 dst = (oc * kk + t) * ic_n + ic;
        gw_t[dst] = gw[size_t(src)];
        if (din) w_t[dst] = w[size_t(src)];
      }
  for (i64 ic = 0; ic < ic_n; ++ic)
    for (i64 p = 0; p < plane; ++p)
      in_t[p * ic_n + ic] = in.v[size_t(ic * plane + p)];
  if (din) std::fill(din_t, din_t + nin, 0.0f);

  for (i64 oc = 0; oc < oc_n; ++oc) {
    for (i64 oy = 0; oy < dout.h; ++oy) {
      const i64 iy0 = oy * s - pad;
      const i64 ky0 = std::max<i64>(0, -iy0), ky1 = std::min<i64>(k, h - iy0);
      for (i64 ox = 0; ox < dout.w; ++ox) {
        const float g = dout.at(oc, oy, ox);
        if (g == 0.0f) continue;
        gb[size_t(oc)] += g;
        const i64 ix0 = ox * s - pad;
        const i64 kx0 = std::max<i64>(0, -ix0);
        const i64 kx1 = std::min<i64>(k, wd - ix0);
        const i64 run = (kx1 - kx0) * ic_n;
        for (i64 ky = ky0; ky < ky1; ++ky) {
          const i64 px = ((iy0 + ky) * wd + ix0 + kx0) * ic_n;
          const i64 wx = ((oc * k + ky) * k + kx0) * ic_n;
          float* __restrict gr = gw_t + wx;
          const float* __restrict xr = in_t + px;
          for (i64 j = 0; j < run; ++j) gr[j] += g * xr[j];
          if (din) {
            float* __restrict dr = din_t + px;
            const float* __restrict wr = w_t + wx;
            for (i64 j = 0; j < run; ++j) dr[j] += g * wr[j];
          }
        }
      }
    }
  }

  for (i64 oc = 0; oc < oc_n; ++oc)
    for (i64 ic = 0; ic < ic_n; ++ic)
      for (i64 t = 0; t < kk; ++t)
        gw[size_t((oc * ic_n + ic) * kk + t)] =
            gw_t[(oc * kk + t) * ic_n + ic];
  if (din)
    for (i64 ic = 0; ic < ic_n; ++ic)
      for (i64 p = 0; p < plane; ++p)
        din->v[size_t(ic * plane + p)] = din_t[p * ic_n + ic];
}

Dense::Dense(i64 in_dim, i64 out_dim, Rng& rng) : in_(in_dim), out_(out_dim) {
  MLR_CHECK(in_dim >= 1 && out_dim >= 1);
  w.resize(size_t(in_ * out_));
  gw.assign(w.size(), 0.0f);
  b.assign(size_t(out_), 0.0f);
  gb.assign(size_t(out_), 0.0f);
  const double xavier = std::sqrt(1.0 / double(in_));
  for (auto& x : w) x = float(rng.normal(0.0, xavier));
}

std::vector<float> Dense::forward(const std::vector<float>& in) const {
  MLR_CHECK(i64(in.size()) == in_);
  std::vector<float> out(static_cast<size_t>(out_));
  dense_forward(w.data(), b.data(), in_, out_, in.data(), out.data());
  return out;
}

std::vector<float> Dense::backward(const std::vector<float>& in,
                                   const std::vector<float>& dout) {
  MLR_CHECK(i64(in.size()) == in_ && i64(dout.size()) == out_);
  std::vector<float> din(static_cast<size_t>(in_), 0.0f);
  for (i64 o = 0; o < out_; ++o) {
    const float g = dout[size_t(o)];
    gb[size_t(o)] += g;
    float* grow = gw.data() + size_t(o * in_);
    const float* row = w.data() + size_t(o * in_);
    for (i64 i = 0; i < in_; ++i) {
      grow[i] += g * in[size_t(i)];
      din[size_t(i)] += g * row[i];
    }
  }
  return din;
}

void relu_forward(std::span<float> v) {
  for (auto& x : v)
    if (x < 0) x = 0;
}

void relu_backward(const std::vector<float>& out, std::vector<float>& grad) {
  MLR_CHECK(out.size() == grad.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] <= 0.0f) grad[i] = 0.0f;
}

FeatureMap avgpool2(const FeatureMap& in) {
  FeatureMap out(in.c, in.h / 2, in.w / 2);
  avgpool2(in.v.data(), in.c, in.h, in.w, out.v.data());
  return out;
}

void avgpool2(const float* in, i64 c, i64 h, i64 w, float* out) {
  const i64 oh = h / 2, ow = w / 2;
  for (i64 ci = 0; ci < c; ++ci)
    for (i64 y = 0; y < oh; ++y) {
      const float* r0 = in + (ci * h + 2 * y) * w;
      const float* r1 = r0 + w;
      float* o = out + (ci * oh + y) * ow;
      for (i64 x = 0; x < ow; ++x)
        o[x] = 0.25f * (r0[2 * x] + r1[2 * x] + r0[2 * x + 1] + r1[2 * x + 1]);
    }
}

FeatureMap avgpool2_backward(const FeatureMap& in_shape_ref,
                             const FeatureMap& dout) {
  FeatureMap din(in_shape_ref.c, in_shape_ref.h, in_shape_ref.w);
  for (i64 c = 0; c < dout.c; ++c)
    for (i64 y = 0; y < dout.h; ++y)
      for (i64 x = 0; x < dout.w; ++x) {
        const float g = 0.25f * dout.at(c, y, x);
        din.at(c, 2 * y, 2 * x) += g;
        din.at(c, 2 * y + 1, 2 * x) += g;
        din.at(c, 2 * y, 2 * x + 1) += g;
        din.at(c, 2 * y + 1, 2 * x + 1) += g;
      }
  return din;
}

void Adam::step(std::vector<float>& param, std::vector<float>& grad) {
  MLR_CHECK(param.size() == m_.size() && grad.size() == m_.size());
  constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  ++t_;
  const double bc1 = 1.0 - std::pow(b1, double(t_));
  const double bc2 = 1.0 - std::pow(b2, double(t_));
  for (std::size_t i = 0; i < param.size(); ++i) {
    m_[i] = float(b1 * m_[i] + (1.0 - b1) * grad[i]);
    v_[i] = float(b2 * v_[i] + (1.0 - b2) * double(grad[i]) * grad[i]);
    const double mh = m_[i] / bc1;
    const double vh = v_[i] / bc2;
    param[i] -= float(lr_ * mh / (std::sqrt(vh) + eps));
    grad[i] = 0.0f;  // consume the accumulator
  }
}

}  // namespace mlr::encoder
