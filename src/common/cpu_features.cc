#include "common/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace sinan {

namespace {

CpuFeatures
Detect()
{
    CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
    return f;
}

SimdMode
ModeFromEnv()
{
    SimdMode m = SimdMode::kAuto;
    const char* env = std::getenv("SINAN_SIMD");
    if (env != nullptr)
        (void)ParseSimdMode(env, &m); // unknown values keep kAuto
    return m;
}

/** Relaxed is enough: callers flip the mode between evaluations, never
 *  concurrently with a running kernel. */
std::atomic<SimdMode> g_mode{ModeFromEnv()};

} // namespace

const CpuFeatures&
GetCpuFeatures()
{
    static const CpuFeatures f = Detect();
    return f;
}

SimdMode
CurrentSimdMode()
{
    return g_mode.load(std::memory_order_relaxed);
}

void
SetSimdMode(SimdMode mode)
{
    g_mode.store(mode, std::memory_order_relaxed);
}

void
ReloadSimdModeFromEnv()
{
    g_mode.store(ModeFromEnv(), std::memory_order_relaxed);
}

bool
ParseSimdMode(const char* text, SimdMode* out)
{
    if (text == nullptr || out == nullptr)
        return false;
    if (std::strcmp(text, "off") == 0 || std::strcmp(text, "0") == 0) {
        *out = SimdMode::kOff;
        return true;
    }
    if (std::strcmp(text, "auto") == 0) {
        *out = SimdMode::kAuto;
        return true;
    }
    return false;
}

bool
SimdCompiledIn()
{
#ifdef SINAN_HAVE_AVX2
    return true;
#else
    return false;
#endif
}

bool
SimdActive()
{
    if (!SimdCompiledIn() || !GetCpuFeatures().avx2)
        return false;
    return CurrentSimdMode() != SimdMode::kOff;
}

const char*
ActiveKernelId()
{
    return SimdActive() ? "avx2-v1" : "scalar-v1";
}

} // namespace sinan
