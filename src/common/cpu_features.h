/**
 * @file
 * Runtime CPU-feature detection and the SIMD kernel dispatch switch.
 *
 * The tensor/NN microkernels come in two implementations with the SAME
 * arithmetic contract — per output element, terms accumulate in a
 * fixed ascending order, each as an individually rounded multiply then
 * add — so the vectorized kernels are bit-identical to the scalar
 * ones, not merely close. Which implementation runs is decided here:
 *
 *   compile-time gate   SINAN_HAVE_AVX2 is defined (by CMake's
 *                       SINAN_SIMD option) only when the toolchain can
 *                       build the AVX2 translation unit;
 *   runtime detection   the host CPU must actually report AVX2;
 *   override            SINAN_SIMD=off|auto (environment) or
 *                       SetSimdMode() (tests) forces a path so CI can
 *                       exercise both.
 *
 * Every model evaluation can be stamped with ActiveKernelId() so traces
 * and bench dumps record which kernel produced the bytes. Kernels that
 * share an id suffix ("…-v1") share the accumulation-order contract and
 * therefore produce identical bytes; a future kernel that changes the
 * arithmetic (e.g. true FMA accumulation) must bump the version.
 */
#ifndef SINAN_COMMON_CPU_FEATURES_H
#define SINAN_COMMON_CPU_FEATURES_H

namespace sinan {

/** Host ISA features relevant to the microkernels (detected once). */
struct CpuFeatures {
    bool avx2 = false;
};

/** Cached runtime detection (CPUID on x86-64, all-false elsewhere). */
const CpuFeatures& GetCpuFeatures();

/** Dispatch override. kAuto uses AVX2 when compiled in and detected,
 *  and the scalar path (with the honest kernel id) otherwise; kOff
 *  forces the scalar path. */
enum class SimdMode { kAuto, kOff };

/** Current mode: the last SetSimdMode() value, initially parsed from
 *  the SINAN_SIMD environment variable (off|0, auto). */
SimdMode CurrentSimdMode();

/** Overrides the dispatch mode at runtime. Safe to call between
 *  evaluations; must not race a running kernel. */
void SetSimdMode(SimdMode mode);

/** Re-reads SINAN_SIMD from the environment (tests that setenv after
 *  process start use this to re-arm the dispatch decision). */
void ReloadSimdModeFromEnv();

/** Parses "off"/"0", "auto" (returns false on anything else, leaving
 *  @p out untouched). */
bool ParseSimdMode(const char* text, SimdMode* out);

/** True when the AVX2 kernels were compiled into this binary. */
bool SimdCompiledIn();

/** The resolved dispatch decision: true iff the next kernel call
 *  takes the AVX2 path. */
bool SimdActive();

/** Stable id of the kernel implementation the dispatcher would select
 *  right now: "avx2-v1" or "scalar-v1". The shared "-v1" suffix
 *  asserts bit-identical output across the two. */
const char* ActiveKernelId();

} // namespace sinan

#endif // SINAN_COMMON_CPU_FEATURES_H
