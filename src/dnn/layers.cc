#include "dnn/layers.h"

#include <algorithm>
#include <cmath>

#include "common/executor.h"
#include "common/profiler.h"

namespace usys {

namespace {

/** He-style normal initialization. */
void
initWeights(std::vector<float> &w, int fan_in, Prng &prng)
{
    const float stddev = std::sqrt(2.0f / float(fan_in));
    for (auto &v : w)
        v = float(prng.gaussian()) * stddev;
}

/** SGD with momentum over one parameter blob. */
void
sgdStep(std::vector<float> &param, std::vector<float> &grad,
        std::vector<float> &vel, float lr, float momentum)
{
    for (std::size_t i = 0; i < param.size(); ++i) {
        vel[i] = momentum * vel[i] - lr * grad[i];
        param[i] += vel[i];
        grad[i] = 0.0f;
    }
}

/** im2col: (N,C,H,W) -> (N*OH*OW) x (C*k*k). Parallel over (image,
 *  output row); each task fills its own out_w rows of the result. */
MatF
im2col(const Tensor &x, int kernel, int stride, int pad, int out_h,
       int out_w)
{
    const int c = x.c(), h = x.h(), w = x.w();
    const int cols_per_row = c * kernel * kernel;
    MatF cols(x.n() * out_h * out_w, cols_per_row, 0.0f);
    parallelFor(
        0, u64(x.n()) * u64(out_h),
        [&](u64 task) {
            const int ni = int(task / u64(out_h));
            const int oh = int(task % u64(out_h));
            const float *img = x.data() + std::size_t(ni) * c * h * w;
            for (int ow = 0; ow < out_w; ++ow) {
                float *dst = &cols((ni * out_h + oh) * out_w + ow, 0);
                for (int ci = 0; ci < c; ++ci) {
                    const float *plane = img + std::size_t(ci) * h * w;
                    for (int kh = 0; kh < kernel; ++kh) {
                        const int ih = oh * stride + kh - pad;
                        const bool row_in = ih >= 0 && ih < h;
                        for (int kw = 0; kw < kernel; ++kw, ++dst) {
                            const int iw = ow * stride + kw - pad;
                            if (row_in && iw >= 0 && iw < w)
                                *dst = plane[std::size_t(ih) * w + iw];
                        }
                    }
                }
            }
        },
        rowGrain(u64(out_w) * u64(cols_per_row)));
    return cols;
}

/** col2im: scatter-add the gradient of im2col. */
void
col2im(const MatF &cols, Tensor &grad_x, int kernel, int stride, int pad,
       int out_h, int out_w)
{
    const int n = grad_x.n(), c = grad_x.c(), h = grad_x.h(),
              w = grad_x.w();
    for (int ni = 0; ni < n; ++ni) {
        for (int oh = 0; oh < out_h; ++oh) {
            for (int ow = 0; ow < out_w; ++ow) {
                const int row = (ni * out_h + oh) * out_w + ow;
                int col = 0;
                for (int ci = 0; ci < c; ++ci) {
                    for (int kh = 0; kh < kernel; ++kh) {
                        const int ih = oh * stride + kh - pad;
                        for (int kw = 0; kw < kernel; ++kw, ++col) {
                            const int iw = ow * stride + kw - pad;
                            if (ih >= 0 && ih < h && iw >= 0 && iw < w)
                                grad_x.at(ni, ci, ih, iw) += cols(row, col);
                        }
                    }
                }
            }
        }
    }
}

} // namespace

// --- Conv2d ----------------------------------------------------------------

Conv2d::Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad,
               Prng &init)
    : in_ch_(in_ch), out_ch_(out_ch), kernel_(kernel), stride_(stride),
      pad_(pad)
{
    const std::size_t k = std::size_t(in_ch) * kernel * kernel;
    weight_.assign(k * out_ch, 0.0f);
    bias_.assign(out_ch, 0.0f);
    grad_w_.assign(weight_.size(), 0.0f);
    grad_b_.assign(bias_.size(), 0.0f);
    vel_w_.assign(weight_.size(), 0.0f);
    vel_b_.assign(bias_.size(), 0.0f);
    initWeights(weight_, int(k), init);
}

i64
Conv2d::macsPerSample(int in_h, int in_w) const
{
    const i64 oh = (in_h + 2 * pad_ - kernel_) / stride_ + 1;
    const i64 ow = (in_w + 2 * pad_ - kernel_) / stride_ + 1;
    return oh * ow * i64(in_ch_) * kernel_ * kernel_ * out_ch_;
}

Tensor
Conv2d::forward(const Tensor &x, const NumericConfig &cfg)
{
    input_ = x;
    out_h_ = (x.h() + 2 * pad_ - kernel_) / stride_ + 1;
    out_w_ = (x.w() + 2 * pad_ - kernel_) / stride_ + 1;
    {
        USYS_PROF_SCOPE("dnn.im2col");
        cols_ = im2col(x, kernel_, stride_, pad_, out_h_, out_w_);
    }

    const int k = in_ch_ * kernel_ * kernel_;
    MatF wmat(k, out_ch_);
    for (int r = 0; r < k; ++r)
        for (int c = 0; c < out_ch_; ++c)
            wmat(r, c) = weight_[std::size_t(r) * out_ch_ + c];

    const MatF out = gemmWithMode(cols_, wmat, cfg);

    // Scatter (rows x out_ch) back to NCHW plus bias, one image a task.
    Tensor y(x.n(), out_ch_, out_h_, out_w_);
    const int pixels = out_h_ * out_w_;
    parallelFor(
        0, u64(x.n()),
        [&](u64 ni) {
            float *img = y.data() + ni * u64(out_ch_) * pixels;
            const int row0 = int(ni) * pixels;
            for (int p = 0; p < pixels; ++p) {
                const float *src = &out(row0 + p, 0);
                for (int oc = 0; oc < out_ch_; ++oc)
                    img[std::size_t(oc) * pixels + p] = src[oc] + bias_[oc];
            }
        },
        rowGrain(u64(pixels) * u64(out_ch_)));
    return y;
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    const int k = in_ch_ * kernel_ * kernel_;
    const int rows = grad_out.n() * out_h_ * out_w_;

    // Flatten grad_out to (rows x out_ch).
    MatF g(rows, out_ch_);
    for (int ni = 0; ni < grad_out.n(); ++ni)
        for (int oh = 0; oh < out_h_; ++oh)
            for (int ow = 0; ow < out_w_; ++ow) {
                const int row = (ni * out_h_ + oh) * out_w_ + ow;
                for (int oc = 0; oc < out_ch_; ++oc)
                    g(row, oc) = grad_out.at(ni, oc, oh, ow);
            }

    // grad_w (k x out_ch) = cols^T x g; grad_b = column sums of g.
    for (int r = 0; r < rows; ++r) {
        for (int kk = 0; kk < k; ++kk) {
            const float cv = cols_(r, kk);
            if (cv == 0.0f)
                continue;
            float *gw = &grad_w_[std::size_t(kk) * out_ch_];
            const float *gr = &g(r, 0);
            for (int oc = 0; oc < out_ch_; ++oc)
                gw[oc] += cv * gr[oc];
        }
        for (int oc = 0; oc < out_ch_; ++oc)
            grad_b_[oc] += g(r, oc);
    }

    // grad_cols (rows x k) = g x W^T, then scatter back with col2im.
    MatF grad_cols(rows, k, 0.0f);
    for (int r = 0; r < rows; ++r) {
        for (int oc = 0; oc < out_ch_; ++oc) {
            const float gv = g(r, oc);
            if (gv == 0.0f)
                continue;
            for (int kk = 0; kk < k; ++kk)
                grad_cols(r, kk) +=
                    gv * weight_[std::size_t(kk) * out_ch_ + oc];
        }
    }
    Tensor grad_x(input_.n(), input_.c(), input_.h(), input_.w());
    col2im(grad_cols, grad_x, kernel_, stride_, pad_, out_h_, out_w_);
    return grad_x;
}

void
Conv2d::step(float lr, float momentum)
{
    sgdStep(weight_, grad_w_, vel_w_, lr, momentum);
    sgdStep(bias_, grad_b_, vel_b_, lr, momentum);
}

std::vector<std::vector<float> *>
Conv2d::paramBlobs()
{
    return {&weight_, &bias_};
}

// --- Linear ------------------------------------------------------------------

Linear::Linear(int in_features, int out_features, Prng &init)
    : in_f_(in_features), out_f_(out_features)
{
    weight_.assign(std::size_t(in_f_) * out_f_, 0.0f);
    bias_.assign(out_f_, 0.0f);
    grad_w_.assign(weight_.size(), 0.0f);
    grad_b_.assign(bias_.size(), 0.0f);
    vel_w_.assign(weight_.size(), 0.0f);
    vel_b_.assign(bias_.size(), 0.0f);
    initWeights(weight_, in_f_, init);
}

Tensor
Linear::forward(const Tensor &x, const NumericConfig &cfg)
{
    input_ = x;
    in_n_ = x.n();
    in_c_ = x.c();
    in_h_ = x.h();
    in_w_ = x.w();
    const int per_sample = in_c_ * in_h_ * in_w_;
    fatalIf(per_sample != in_f_, "Linear: input feature mismatch");

    MatF a(in_n_, in_f_);
    for (int ni = 0; ni < in_n_; ++ni)
        for (int f = 0; f < in_f_; ++f)
            a(ni, f) = x.raw()[std::size_t(ni) * in_f_ + f];

    MatF wmat(in_f_, out_f_);
    for (int r = 0; r < in_f_; ++r)
        for (int c = 0; c < out_f_; ++c)
            wmat(r, c) = weight_[std::size_t(r) * out_f_ + c];

    const MatF out = gemmWithMode(a, wmat, cfg);
    Tensor y(in_n_, out_f_, 1, 1);
    for (int ni = 0; ni < in_n_; ++ni)
        for (int f = 0; f < out_f_; ++f)
            y.at(ni, f, 0, 0) = out(ni, f) + bias_[f];
    return y;
}

Tensor
Linear::backward(const Tensor &grad_out)
{
    Tensor grad_x(in_n_, in_c_, in_h_, in_w_);
    for (int ni = 0; ni < in_n_; ++ni) {
        const float *xin = &input_.raw()[std::size_t(ni) * in_f_];
        float *gx = &grad_x.raw()[std::size_t(ni) * in_f_];
        for (int o = 0; o < out_f_; ++o) {
            const float gv = grad_out.at(ni, o, 0, 0);
            grad_b_[o] += gv;
            if (gv == 0.0f)
                continue;
            for (int f = 0; f < in_f_; ++f) {
                grad_w_[std::size_t(f) * out_f_ + o] += gv * xin[f];
                gx[f] += gv * weight_[std::size_t(f) * out_f_ + o];
            }
        }
    }
    return grad_x;
}

void
Linear::step(float lr, float momentum)
{
    sgdStep(weight_, grad_w_, vel_w_, lr, momentum);
    sgdStep(bias_, grad_b_, vel_b_, lr, momentum);
}

std::vector<std::vector<float> *>
Linear::paramBlobs()
{
    return {&weight_, &bias_};
}

// --- ReLU / MaxPool ---------------------------------------------------------

Tensor
ReLU::forward(const Tensor &x, const NumericConfig &)
{
    input_ = x;
    Tensor y = x;
    for (auto &v : y.raw())
        v = std::max(v, 0.0f);
    return y;
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    Tensor g = grad_out;
    for (std::size_t i = 0; i < g.raw().size(); ++i)
        if (input_.raw()[i] <= 0.0f)
            g.raw()[i] = 0.0f;
    return g;
}

Tensor
MaxPool2d::forward(const Tensor &x, const NumericConfig &)
{
    input_ = x;
    out_h_ = x.h() / 2;
    out_w_ = x.w() / 2;
    Tensor y(x.n(), x.c(), out_h_, out_w_);
    argmax_.assign(y.size(), 0);
    std::size_t oi = 0;
    for (int ni = 0; ni < x.n(); ++ni)
        for (int ci = 0; ci < x.c(); ++ci)
            for (int oh = 0; oh < out_h_; ++oh)
                for (int ow = 0; ow < out_w_; ++ow, ++oi) {
                    float best = -1e30f;
                    u32 best_idx = 0;
                    for (int dh = 0; dh < 2; ++dh)
                        for (int dw = 0; dw < 2; ++dw) {
                            const int ih = oh * 2 + dh, iw = ow * 2 + dw;
                            const float v = x.at(ni, ci, ih, iw);
                            if (v > best) {
                                best = v;
                                best_idx = u32(
                                    ((std::size_t(ni) * x.c() + ci) *
                                         x.h() + ih) * x.w() + iw);
                            }
                        }
                    y.at(ni, ci, oh, ow) = best;
                    argmax_[oi] = best_idx;
                }
    return y;
}

Tensor
MaxPool2d::backward(const Tensor &grad_out)
{
    Tensor g(input_.n(), input_.c(), input_.h(), input_.w());
    for (std::size_t i = 0; i < grad_out.size(); ++i)
        g.raw()[argmax_[i]] += grad_out.raw()[i];
    return g;
}

// --- Sequential ---------------------------------------------------------------

Tensor
Sequential::forward(const Tensor &x, const NumericConfig &cfg)
{
    Tensor cur = x;
    for (auto &layer : layers_)
        cur = layer->forward(cur, cfg);
    return cur;
}

Tensor
Sequential::forwardMixed(const Tensor &x,
                         const std::vector<NumericConfig> &configs)
{
    fatalIf(configs.size() != layers_.size(),
            "forwardMixed: one config per sublayer required");
    Tensor cur = x;
    for (std::size_t i = 0; i < layers_.size(); ++i)
        cur = layers_[i]->forward(cur, configs[i]);
    return cur;
}

Tensor
Sequential::forwardMeasuringSparsity(const Tensor &x,
                                     const NumericConfig &cfg,
                                     std::vector<double> *gemm_input_zero_frac)
{
    Tensor cur = x;
    for (auto &layer : layers_) {
        const std::string kind = layer->name();
        if (kind == "conv" || kind == "linear" || kind == "residual")
            gemm_input_zero_frac->push_back(cur.zeroFraction());
        cur = layer->forward(cur, cfg);
    }
    return cur;
}

Tensor
Sequential::backward(const Tensor &grad_out)
{
    Tensor g = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

void
Sequential::step(float lr, float momentum)
{
    for (auto &layer : layers_)
        layer->step(lr, momentum);
}

std::vector<std::vector<float> *>
Sequential::paramBlobs()
{
    std::vector<std::vector<float> *> blobs;
    for (auto &layer : layers_)
        for (auto *blob : layer->paramBlobs())
            blobs.push_back(blob);
    return blobs;
}

// --- ResidualBlock -----------------------------------------------------------

ResidualBlock::ResidualBlock(int in_ch, int out_ch, int stride, Prng &init)
{
    body_.add(std::make_unique<Conv2d>(in_ch, out_ch, 3, stride, 1, init));
    body_.add(std::make_unique<ReLU>());
    body_.add(std::make_unique<Conv2d>(out_ch, out_ch, 3, 1, 1, init));
    if (stride != 1 || in_ch != out_ch) {
        projection_ =
            std::make_unique<Conv2d>(in_ch, out_ch, 1, stride, 0, init);
    }
}

Tensor
ResidualBlock::forward(const Tensor &x, const NumericConfig &cfg)
{
    input_ = x;
    Tensor main = body_.forward(x, cfg);
    Tensor shortcut = projection_ ? projection_->forward(x, cfg) : x;
    sum_ = main;
    for (std::size_t i = 0; i < sum_.raw().size(); ++i)
        sum_.raw()[i] += shortcut.raw()[i];
    Tensor y = sum_;
    for (auto &v : y.raw())
        v = std::max(v, 0.0f);
    return y;
}

Tensor
ResidualBlock::backward(const Tensor &grad_out)
{
    Tensor g = grad_out;
    for (std::size_t i = 0; i < g.raw().size(); ++i)
        if (sum_.raw()[i] <= 0.0f)
            g.raw()[i] = 0.0f;

    Tensor grad_main = body_.backward(g);
    if (projection_) {
        Tensor grad_short = projection_->backward(g);
        for (std::size_t i = 0; i < grad_main.raw().size(); ++i)
            grad_main.raw()[i] += grad_short.raw()[i];
    } else {
        for (std::size_t i = 0; i < grad_main.raw().size(); ++i)
            grad_main.raw()[i] += g.raw()[i];
    }
    return grad_main;
}

void
ResidualBlock::step(float lr, float momentum)
{
    body_.step(lr, momentum);
    if (projection_)
        projection_->step(lr, momentum);
}

std::vector<std::vector<float> *>
ResidualBlock::paramBlobs()
{
    auto blobs = body_.paramBlobs();
    if (projection_)
        for (auto *blob : projection_->paramBlobs())
            blobs.push_back(blob);
    return blobs;
}

// --- Loss ----------------------------------------------------------------------

double
softmaxCrossEntropy(const Tensor &logits, const std::vector<int> &labels,
                    Tensor *grad)
{
    const int n = logits.n();
    const int classes = logits.c();
    fatalIf(int(labels.size()) != n, "softmaxCrossEntropy: label count");
    if (grad)
        *grad = Tensor(n, classes, 1, 1);

    double loss = 0.0;
    for (int ni = 0; ni < n; ++ni) {
        float mx = -1e30f;
        for (int c = 0; c < classes; ++c)
            mx = std::max(mx, logits.at(ni, c, 0, 0));
        double denom = 0.0;
        for (int c = 0; c < classes; ++c)
            denom += std::exp(double(logits.at(ni, c, 0, 0)) - mx);
        const double log_denom = std::log(denom);
        const double logit_y = logits.at(ni, labels[ni], 0, 0) - mx;
        loss += log_denom - logit_y;
        if (grad) {
            for (int c = 0; c < classes; ++c) {
                const double p =
                    std::exp(double(logits.at(ni, c, 0, 0)) - mx) / denom;
                grad->at(ni, c, 0, 0) =
                    float((p - (c == labels[ni] ? 1.0 : 0.0)) / n);
            }
        }
    }
    return loss / n;
}

std::vector<int>
argmaxLogits(const Tensor &logits)
{
    std::vector<int> out(logits.n());
    for (int ni = 0; ni < logits.n(); ++ni) {
        int best = 0;
        for (int c = 1; c < logits.c(); ++c)
            if (logits.at(ni, c, 0, 0) > logits.at(ni, best, 0, 0))
                best = c;
        out[ni] = best;
    }
    return out;
}

} // namespace usys
