#include "models/sinan_cnn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/gemm_kernels.h"

namespace sinan {

namespace {

/** Candidate rows per ParallelFor block of the head's fc_latent. Fixed,
 *  so the block structure never depends on the thread count (each row
 *  is written by one block either way, so neither do the bytes). */
constexpr int64_t kHeadRowGrain = 32;

/** Concatenates three [B, *] tensors along dim 1. */
Tensor
ConcatCols(const Tensor& a, const Tensor& b, const Tensor& c)
{
    const int batch = a.Dim(0);
    const int na = a.Dim(1), nb = b.Dim(1), nc = c.Dim(1);
    Tensor out({batch, na + nb + nc});
    for (int i = 0; i < batch; ++i) {
        float* row = out.Data() + static_cast<size_t>(i) * (na + nb + nc);
        std::copy(a.Data() + static_cast<size_t>(i) * na,
                  a.Data() + static_cast<size_t>(i + 1) * na, row);
        std::copy(b.Data() + static_cast<size_t>(i) * nb,
                  b.Data() + static_cast<size_t>(i + 1) * nb, row + na);
        std::copy(c.Data() + static_cast<size_t>(i) * nc,
                  c.Data() + static_cast<size_t>(i + 1) * nc,
                  row + na + nb);
    }
    return out;
}

/** Splits a [B, na+nb+nc] gradient back into its three parts. */
void
SplitCols(const Tensor& g, int na, int nb, int nc, Tensor& ga, Tensor& gb,
          Tensor& gc)
{
    const int batch = g.Dim(0);
    ga = Tensor({batch, na});
    gb = Tensor({batch, nb});
    gc = Tensor({batch, nc});
    for (int i = 0; i < batch; ++i) {
        const float* row =
            g.Data() + static_cast<size_t>(i) * (na + nb + nc);
        std::copy(row, row + na,
                  ga.Data() + static_cast<size_t>(i) * na);
        std::copy(row + na, row + na + nb,
                  gb.Data() + static_cast<size_t>(i) * nb);
        std::copy(row + na + nb, row + na + nb + nc,
                  gc.Data() + static_cast<size_t>(i) * nc);
    }
}

} // namespace

SinanCnn::SinanCnn(const FeatureConfig& fcfg, const SinanCnnConfig& cfg,
                   uint64_t seed)
    : fcfg_(fcfg), pending_seed_(seed)
{
    const int n = fcfg.n_tiers;
    const int t_len = fcfg.history;

    // Declaration order matches the serialization order (and the
    // pre-refactor Sequential layout), so existing saved models load
    // unchanged. The layers start at zero; DrawPending replays the
    // Kaiming draws.
    conv1_ = Conv2D(FeatureConfig::kChannels, cfg.conv_channels1,
                    SinanCnnConfig::kKernel);
    conv2_ = Conv2D(cfg.conv_channels1, cfg.conv_channels2,
                    SinanCnnConfig::kKernel);
    rh_fc_ = Dense(cfg.conv_channels2 * n * t_len, SinanCnnConfig::kRhEmbed);
    lh_fc_ = Dense(fcfg.LatFeatures(), SinanCnnConfig::kLhEmbed);
    rc_fc_ = Dense(n, SinanCnnConfig::kRcEmbed);
    fc_latent_ = Dense(SinanCnnConfig::kRhEmbed + SinanCnnConfig::kLhEmbed +
                           SinanCnnConfig::kRcEmbed,
                       SinanCnnConfig::kLatent);
    fc_out_ = Dense(SinanCnnConfig::kLatent, fcfg.n_percentiles);
}

void
SinanCnn::DrawPending()
{
    if (!pending_seed_)
        return;
    // One stream over the weights in serialization order; the biases
    // stay zero.
    Rng rng(*pending_seed_);
    pending_seed_.reset();
    conv1_.DrawWeights(rng);
    conv2_.DrawWeights(rng);
    rh_fc_.DrawWeights(rng);
    lh_fc_.DrawWeights(rng);
    rc_fc_.DrawWeights(rng);
    fc_latent_.DrawWeights(rng);
    fc_out_.DrawWeights(rng);
}

Tensor
SinanCnn::Forward(const Batch& batch)
{
    DrawPending();
    Tensor h = conv1_relu_.Forward(conv1_.Forward(batch.xrh));
    h = conv2_relu_.Forward(conv2_.Forward(h));
    h = flatten_.Forward(h);
    const Tensor ha = rh_relu_.Forward(rh_fc_.Forward(h));
    const Tensor hb = lh_relu_.Forward(lh_fc_.Forward(batch.xlh));
    const Tensor hc = rc_relu_.Forward(rc_fc_.Forward(batch.xrc));
    const Tensor concat = ConcatCols(ha, hb, hc);
    latent_ = relu_latent_.Forward(fc_latent_.Forward(concat));
    Tensor y = fc_out_.Forward(latent_);
    AddPersistenceResidual(batch, fcfg_, y);
    return y;
}

void
SinanCnn::ForwardTrunk(CnnEvalWorkspace& ws)
{
    DrawPending();
    SINAN_CHECK_EQ(ws.xrh.Rank(), 4);
    SINAN_CHECK_EQ(ws.xrh.Dim(0), 1);
    SINAN_CHECK_EQ(ws.xlh.Rank(), 2);
    SINAN_CHECK_EQ(ws.xlh.Dim(0), 1);
    conv1_.ForwardInto(ws.xrh, ws.conv1_out);
    ReluInPlace(ws.conv1_out);
    conv2_.ForwardInto(ws.conv1_out, ws.conv2_out);
    ReluInPlace(ws.conv2_out);
    // Flatten is a pure view change on a batch of 1.
    SINAN_CHECK_MSG(
        ws.conv2_out.Size() <=
            static_cast<size_t>(std::numeric_limits<int>::max()),
        "ForwardTrunk: conv output too large to flatten");
    ws.conv2_out.ReshapeInPlace(
        {1, static_cast<int>(ws.conv2_out.Size())});
    rh_fc_.ForwardInto(ws.conv2_out, ws.rh_embed);
    ReluInPlace(ws.rh_embed);
    lh_fc_.ForwardInto(ws.xlh, ws.lh_embed);
    ReluInPlace(ws.lh_embed);
}

void
SinanCnn::AddPersistence(CnnEvalWorkspace& ws) const
{
    // Persistence residual, broadcast from the shared window row: the
    // full-batch path adds batch.xlh.At(i, base + p), and every row i
    // carries the same latency history here.
    const int batch = ws.pred.Dim(0);
    const int m = fcfg_.n_percentiles;
    const int base = (fcfg_.history - 1) * m;
    SINAN_CHECK_SHAPE(ws.pred, batch, m);
    SINAN_CHECK_SHAPE(ws.xlh, 1, base + m);
    const float* last = ws.xlh.Data() + base;
    for (int i = 0; i < batch; ++i)
        AddInPlace(ws.pred.Data() + static_cast<size_t>(i) * m, last, m);
}

void
SinanCnn::ForwardHead(CnnEvalWorkspace& ws) const
{
    SINAN_CHECK_EQ(ws.xrc.Rank(), 2);
    constexpr int na = SinanCnnConfig::kRhEmbed;
    constexpr int nb = SinanCnnConfig::kLhEmbed;
    constexpr int nc = SinanCnnConfig::kRcEmbed;
    SINAN_CHECK_MSG(ws.rh_embed.Size() == static_cast<size_t>(na) &&
                        ws.lh_embed.Size() == static_cast<size_t>(nb),
                    "ForwardHead: trunk embeddings missing — call "
                    "ForwardTrunk first");
    rc_fc_.ForwardInto(ws.xrc, ws.rc_embed);
    ReluInPlace(ws.rc_embed);

    // fc_latent over rows [rh | lh | rc_i]. GemmRows accumulates each
    // output in ascending k with a separate multiply and add, so the
    // sum over the shared rh and lh columns is the same prefix for
    // every candidate: compute it once, copy it into each row, and
    // continue over the row's own rc columns. Bias last, as in Dense —
    // the bytes of Dense::ForwardInto on the concatenated rows.
    const int batch = ws.xrc.Dim(0);
    const Tensor& w = fc_latent_.Weight(); // [na + nb + nc, latent]
    const int lat = w.Dim(1);
    const float* wp = w.Data();
    const float* bias = fc_latent_.Bias().Data();
    const GemmRowsFn kern = ActiveGemmRows();
    ws.latent_trunk.EnsureShape({1, lat});
    ws.latent_trunk.Fill(0.0f);
    float* prefix = ws.latent_trunk.Data();
    kern(ws.rh_embed.Data(), na, wp, lat, prefix, lat, 0, 1, na, lat);
    kern(ws.lh_embed.Data(), nb, wp + static_cast<size_t>(na) * lat, lat,
         prefix, lat, 0, 1, nb, lat);
    ws.latent.EnsureShape({batch, lat});
    const float* rc_w = wp + static_cast<size_t>(na + nb) * lat;
    ParallelFor(0, batch, kHeadRowGrain, [&](int64_t lo, int64_t hi) {
        float* out = ws.latent.Data();
        for (int64_t i = lo; i < hi; ++i)
            std::copy(prefix, prefix + lat, out + i * lat);
        kern(ws.rc_embed.Data(), nc, rc_w, lat, out, lat, lo, hi, nc, lat);
        for (int64_t i = lo; i < hi; ++i)
            AddInPlace(out + i * lat, bias, lat);
    });
    ReluInPlace(ws.latent);
    fc_out_.ForwardInto(ws.latent, ws.pred);
    AddPersistence(ws);
}

namespace {

float
MaxAbs(const Tensor& t)
{
    float m = 0.0f;
    const float* p = t.Data();
    const size_t n = t.Size();
    for (size_t i = 0; i < n; ++i)
        m = std::max(m, std::fabs(p[i]));
    return m;
}

} // namespace

void
SinanCnn::ObserveCalibration(const CnnEvalWorkspace& ws,
                             CnnCalibration& cal)
{
    cal.xrh = std::max(cal.xrh, MaxAbs(ws.xrh));
    cal.conv1_out = std::max(cal.conv1_out, MaxAbs(ws.conv1_out));
    cal.conv2_out = std::max(cal.conv2_out, MaxAbs(ws.conv2_out));
    cal.xlh = std::max(cal.xlh, MaxAbs(ws.xlh));
    cal.xrc = std::max(cal.xrc, MaxAbs(ws.xrc));
    // fc_latent's input rows are [rh_embed | lh_embed | rc_embed_i].
    cal.concat = std::max({cal.concat, MaxAbs(ws.rh_embed),
                           MaxAbs(ws.lh_embed), MaxAbs(ws.rc_embed)});
    cal.latent = std::max(cal.latent, MaxAbs(ws.latent));
}

void
SinanCnn::Backward(const Tensor& dy)
{
    Tensor g = fc_out_.Backward(dy);
    g = fc_latent_.Backward(relu_latent_.Backward(g));
    Tensor ga, gb, gc;
    SplitCols(g, SinanCnnConfig::kRhEmbed, SinanCnnConfig::kLhEmbed,
              SinanCnnConfig::kRcEmbed, ga, gb, gc);
    ga = rh_fc_.Backward(rh_relu_.Backward(ga));
    ga = flatten_.Backward(ga);
    ga = conv2_.Backward(conv2_relu_.Backward(ga));
    (void)conv1_.Backward(conv1_relu_.Backward(ga));
    (void)lh_fc_.Backward(lh_relu_.Backward(gb));
    (void)rc_fc_.Backward(rc_relu_.Backward(gc));
}

std::vector<Param*>
SinanCnn::Params()
{
    DrawPending();
    std::vector<Param*> all;
    for (Layer* l : {static_cast<Layer*>(&conv1_),
                     static_cast<Layer*>(&conv2_),
                     static_cast<Layer*>(&rh_fc_),
                     static_cast<Layer*>(&lh_fc_),
                     static_cast<Layer*>(&rc_fc_),
                     static_cast<Layer*>(&fc_latent_),
                     static_cast<Layer*>(&fc_out_)}) {
        for (Param* p : l->Params())
            all.push_back(p);
    }
    return all;
}

void
SinanCnn::Save(std::ostream& out) const
{
    if (pending_seed_) {
        // Const: draw into a copy, leaving this model (which other
        // threads may be reading) untouched.
        SinanCnn drawn(*this);
        drawn.DrawPending();
        drawn.Save(out);
        return;
    }
    conv1_.Save(out);
    conv2_.Save(out);
    rh_fc_.Save(out);
    lh_fc_.Save(out);
    rc_fc_.Save(out);
    fc_latent_.Save(out);
    fc_out_.Save(out);
}

void
SinanCnn::Load(std::istream& in)
{
    conv1_.Load(in);
    conv2_.Load(in);
    rh_fc_.Load(in);
    lh_fc_.Load(in);
    rc_fc_.Load(in);
    fc_latent_.Load(in);
    fc_out_.Load(in);
    pending_seed_.reset();
}

} // namespace sinan
