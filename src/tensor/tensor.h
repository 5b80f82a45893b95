/**
 * @file
 * Minimal dense float tensor used by the neural-network substrate.
 *
 * Row-major storage, up to 4 dimensions in practice (batch, channel,
 * height, width). The NN layers implement their math with explicit loops
 * over contiguous innermost dimensions so the compiler can vectorize; the
 * tensor class itself only manages shape and storage.
 */
#ifndef SINAN_TENSOR_TENSOR_H
#define SINAN_TENSOR_TENSOR_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/rng.h"

namespace sinan {

/** Dense row-major float tensor. */
class Tensor {
  public:
    /** Empty (rank-0, size-0) tensor. */
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(std::vector<int> shape);

    /** Copies count toward AllocationEvents() when they acquire a new
     *  buffer; moves never do. */
    Tensor(const Tensor& other);
    Tensor& operator=(const Tensor& other);
    Tensor(Tensor&&) noexcept = default;
    Tensor& operator=(Tensor&&) noexcept = default;

    /** Builds a 1-D tensor from values. */
    static Tensor FromVector(const std::vector<float>& values);

    /** Tensor with i.i.d. normal entries (for weight init). */
    static Tensor Randn(std::vector<int> shape, Rng& rng,
                        float stddev = 1.0f);

    /** Overwrites every element, in index order, with a N(0, stddev)
     *  draw from @p rng: Randn's draws, in place. */
    void FillNormal(Rng& rng, float stddev);

    const std::vector<int>& Shape() const { return shape_; }
    int Rank() const { return static_cast<int>(shape_.size()); }

    /** Extent of dimension @p d (throws on bad index). */
    int Dim(int d) const;

    /** Total number of elements. */
    size_t Size() const { return data_.size(); }

    bool Empty() const { return data_.empty(); }

    float* Data() { return data_.data(); }
    const float* Data() const { return data_.data(); }

    float& operator[](size_t i) { return data_[i]; }
    float operator[](size_t i) const { return data_[i]; }

    /** 2-D indexed access (row-major). */
    float& At(int i, int j) { return data_[Offset2(i, j)]; }
    float At(int i, int j) const { return data_[Offset2(i, j)]; }

    /** 3-D indexed access. */
    float& At(int i, int j, int k) { return data_[Offset3(i, j, k)]; }
    float At(int i, int j, int k) const { return data_[Offset3(i, j, k)]; }

    /** 4-D indexed access. */
    float&
    At(int i, int j, int k, int l)
    {
        return data_[Offset4(i, j, k, l)];
    }
    float
    At(int i, int j, int k, int l) const
    {
        return data_[Offset4(i, j, k, l)];
    }

    /** Reinterprets the shape; total size must match. */
    Tensor Reshaped(std::vector<int> shape) const;

    /**
     * Reinterprets the shape in place without touching the buffer;
     * total size must match. Unlike Reshaped, never copies data — the
     * workspace fast path uses this to view a [1, C, H, W] conv output
     * as the [1, C*H*W] input of the following dense layer.
     */
    void ReshapeInPlace(const std::vector<int>& shape);

    /**
     * Resizes to @p shape, reusing the existing buffer whenever its
     * capacity suffices (no allocation in that case). Element contents
     * are unspecified afterwards — intended for workspace buffers that
     * are fully overwritten by the caller.
     */
    void EnsureShape(const std::vector<int>& shape);

    /**
     * Process-wide count of tensor buffer acquisitions (constructions,
     * growing EnsureShape calls, and copies that could not reuse
     * capacity). The workspace-reuse tests assert this stays flat
     * across steady-state Evaluate calls.
     */
    static uint64_t AllocationEvents();

    /** Sets every element to @p v. */
    void Fill(float v);

    /** Element-wise in-place scale. */
    void Scale(float s);

    /** Element-wise in-place add (shapes must match). */
    void Add(const Tensor& other);

    /** In-place axpy: this += alpha * other. */
    void Axpy(float alpha, const Tensor& other);

    /** Sum of all elements. */
    double Sum() const;

    /**
     * Binary serialization: int32 rank, int32 extents, then the floats.
     * Reading is split so nothing is sized from an untrusted header: a
     * layer reads the header, checks the shape against its own, and
     * reads the payload into the tensor it already holds (LoadParam in
     * nn/layers.cc). Each malformed stream throws std::runtime_error.
     */
    void Save(std::ostream& out) const;

    /** Reads and validates a header, returning the shape it names
     *  ("Tensor::LoadHeader: corrupt header" otherwise). */
    static std::vector<int> LoadHeader(std::istream& in);

    /** Reads Size() floats into this tensor's own buffer, in place
     *  ("Tensor::LoadPayload: truncated data" on a short stream). */
    void LoadPayload(std::istream& in);

  private:
    size_t Offset2(int i, int j) const;
    size_t Offset3(int i, int j, int k) const;
    size_t Offset4(int i, int j, int k, int l) const;

    std::vector<int> shape_;
    std::vector<float> data_;
};

/**
 * y[0, n) += b[0, n), element by element (so the bytes are the plain
 * loop's): Tensor::Add and the bias and residual epilogues of the
 * inference path. The
 * loop runs in fixed 8- and 4-element blocks because GCC's -O2 loop
 * vectorizer (cost model "very cheap") skips a loop whose trip count
 * is unknown, while its SLP vectorizer packs each constant-trip block
 * into SSE adds. @p y and @p b must not overlap partially.
 */
inline void
AddInPlace(float* y, const float* b, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        float t[8];
        for (int l = 0; l < 8; ++l)
            t[l] = y[i + l] + b[i + l];
        for (int l = 0; l < 8; ++l)
            y[i + l] = t[l];
    }
    if (i + 4 <= n) {
        float t[4];
        for (int l = 0; l < 4; ++l)
            t[l] = y[i + l] + b[i + l];
        for (int l = 0; l < 4; ++l)
            y[i + l] = t[l];
        i += 4;
    }
    for (; i < n; ++i)
        y[i] += b[i];
}

/**
 * C[m,n] = sum_k A[m,k] * B[k,n] (+= when accumulate).
 * Shapes are validated; plain loop ordering (m,k,n) for vectorizable
 * innermost stride-1 access.
 */
void MatMul(const Tensor& a, const Tensor& b, Tensor& c,
            bool accumulate = false);

/** C[m,n] = sum_k A[k,m] * B[k,n] — i.e. A^T * B. */
void MatMulTa(const Tensor& a, const Tensor& b, Tensor& c,
              bool accumulate = false);

/** C[m,n] = sum_k A[m,k] * B[n,k] — i.e. A * B^T. */
void MatMulTb(const Tensor& a, const Tensor& b, Tensor& c,
              bool accumulate = false);

} // namespace sinan

#endif // SINAN_TENSOR_TENSOR_H
