// Minimal neural-network layers with explicit forward/backward passes —
// enough to build and train the paper's 3-layer CNN key encoder without an
// external AI framework (the paper itself notes PyTorch/TensorFlow cannot
// consume COMPLEX64 inputs, hence the real/imag decomposition done here).
//
// Hot loops (conv_forward, dense_forward, Conv2D::backward) are laid out for
// SIMD but keep, for every output element, exactly the floating-point
// operation sequence of the textbook loop nest — only the loop nesting and
// memory layout differ — so keys and trained weights are bit-identical to it
// (pinned in tests/encoder_test.cpp against the naive loops).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/scratch.hpp"
#include "common/types.hpp"

namespace mlr::encoder {

/// A [C][H][W] feature map stored flat, row-major within channel.
struct FeatureMap {
  i64 c = 0, h = 0, w = 0;
  std::vector<float> v;

  FeatureMap() = default;
  FeatureMap(i64 c_, i64 h_, i64 w_)
      : c(c_), h(h_), w(w_), v(size_t(c_ * h_ * w_), 0.0f) {}
  float& at(i64 ci, i64 y, i64 x) { return v[size_t((ci * h + y) * w + x)]; }
  [[nodiscard]] float at(i64 ci, i64 y, i64 x) const {
    return v[size_t((ci * h + y) * w + x)];
  }
  [[nodiscard]] i64 size() const { return c * h * w; }
};

/// Output channels conv_forward computes per sweep over a pixel's taps.
inline constexpr i64 kConvLanes = 16;

/// Geometry of a 'same'-padded (pad = k/2), strided 2-D convolution.
struct ConvShape {
  i64 in_ch = 1, out_ch = 1, k = 1, stride = 1;

  [[nodiscard]] i64 out_dim(i64 in_dim) const {
    return (in_dim + stride - 1) / stride;
  }
  /// Columns of a packed weight row: out_ch rounded up to kConvLanes.
  [[nodiscard]] i64 lanes() const {
    return (out_ch + kConvLanes - 1) / kConvLanes * kConvLanes;
  }
  /// Doubles in the packed weights: a bias row plus one row per tap.
  [[nodiscard]] i64 packed_size() const {
    return (1 + in_ch * k * k) * lanes();
  }
};

/// Lays conv weights w[out_ch][in_ch][k][k] and bias b[out_ch] out for
/// conv_forward: row 0 holds the bias, row 1 + t the weights of tap
/// t = (ic·k + ky)·k + kx, one double per output channel, zero-padded to
/// shape.lanes() columns. Widening float → double is exact.
void pack_conv(const ConvShape& shape, std::span<const float> w,
               std::span<const float> b, std::span<double> dst);

/// out[oc][oy][ox] = float(double(b[oc]) + Σ double(w)·double(x)), the taps
/// added in ascending (ic, ky, kx) order with out-of-range taps skipped.
/// `in` is [in_ch][h][w], `out` is [out_ch][out_dim(h)][out_dim(w)] and
/// `packed` comes from pack_conv. Vectorised across kConvLanes output
/// channels: each lane runs its own channel's sequence unchanged.
void conv_forward(const ConvShape& shape, std::span<const double> packed,
                  const float* in, i64 h, i64 w, float* out);

/// y[o] = float(double(b[o]) + Σ_i double(w[o][i])·double(x[i])), i
/// ascending; several outputs advance together to hide add latency.
void dense_forward(const float* w, const float* b, i64 in_dim, i64 out_dim,
                   const float* x, float* y);

/// 2-D convolution, 'same'-size semantics with stride, He-initialized.
class Conv2D {
 public:
  Conv2D(i64 in_ch, i64 out_ch, i64 ksize, i64 stride, Rng& rng);

  [[nodiscard]] FeatureMap forward(const FeatureMap& in) const;
  /// forward() on raw buffers: `in` is [in_ch][h][width], `out` receives
  /// [out_ch][out_h(h)][out_w(width)]. Packs the live weights into a
  /// per-thread arena, so concurrent calls are safe and allocation-free
  /// once warm.
  void forward(const float* in, i64 h, i64 width, float* out) const;
  /// Backward: given dL/dout, accumulates dL/dw and dL/db into the gradient
  /// buffers and returns dL/din. `in` must be the forward input.
  FeatureMap backward(const FeatureMap& in, const FeatureMap& dout);
  /// backward() without dL/din — for a network's first layer, whose input
  /// gradient nobody reads.
  void backward_params(const FeatureMap& in, const FeatureMap& dout);

  [[nodiscard]] const ConvShape& shape() const { return shape_; }
  [[nodiscard]] i64 out_h(i64 in_h) const { return shape_.out_dim(in_h); }
  [[nodiscard]] i64 out_w(i64 in_w) const { return shape_.out_dim(in_w); }

  std::vector<float> w;   ///< [out_ch][in_ch][k][k]
  std::vector<float> b;   ///< [out_ch]
  std::vector<float> gw;  ///< gradient accumulators
  std::vector<float> gb;

  [[nodiscard]] i64 in_ch() const { return shape_.in_ch; }
  [[nodiscard]] i64 out_ch() const { return shape_.out_ch; }
  [[nodiscard]] i64 ksize() const { return shape_.k; }

 private:
  void backward_into(const FeatureMap& in, const FeatureMap& dout,
                     FeatureMap* din);

  ConvShape shape_;
  PerThreadScratch<double> pack_;   ///< forward's packed weights
  PerThreadScratch<float> bwd_;     ///< backward's channel-last copies
};

/// Fully connected layer.
class Dense {
 public:
  Dense(i64 in_dim, i64 out_dim, Rng& rng);

  [[nodiscard]] std::vector<float> forward(const std::vector<float>& in) const;
  std::vector<float> backward(const std::vector<float>& in,
                              const std::vector<float>& dout);

  std::vector<float> w;  ///< [out][in]
  std::vector<float> b;
  std::vector<float> gw, gb;

  [[nodiscard]] i64 in_dim() const { return in_; }
  [[nodiscard]] i64 out_dim() const { return out_; }

 private:
  i64 in_, out_;
};

/// In-place ReLU; backward masks by the forward output.
void relu_forward(std::span<float> v);
void relu_backward(const std::vector<float>& out, std::vector<float>& grad);

/// 2×2 average pooling (floor semantics).
FeatureMap avgpool2(const FeatureMap& in);
/// avgpool2 on raw buffers: `in` is [c][h][w], `out` is [c][h/2][w/2].
void avgpool2(const float* in, i64 c, i64 h, i64 w, float* out);
FeatureMap avgpool2_backward(const FeatureMap& in_shape_ref,
                             const FeatureMap& dout);

/// Adam optimizer state for one parameter tensor.
class Adam {
 public:
  Adam(std::size_t n, double lr = 1e-3) : lr_(lr), m_(n, 0.0f), v_(n, 0.0f) {}
  void step(std::vector<float>& param, std::vector<float>& grad);

 private:
  double lr_;
  std::vector<float> m_, v_;
  i64 t_ = 0;
};

}  // namespace mlr::encoder
