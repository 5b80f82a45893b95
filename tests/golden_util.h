/**
 * @file
 * Golden-file comparison shared by the tests that pin serialized bytes
 * against tests/golden/. With SINAN_REGEN_GOLDEN set, the file is
 * rewritten from the rendering and the test is skipped, so an
 * intentional format or model change shows up as a reviewed diff of the
 * committed file. SINAN_REPO_ROOT, the source root, is defined for
 * every test by sinan_test() in tests/CMakeLists.txt.
 */
#ifndef SINAN_TESTS_GOLDEN_UTIL_H
#define SINAN_TESTS_GOLDEN_UTIL_H

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace sinan {
namespace testutil {

/** FNV-1a 64-bit hash of @p bytes: a compact stand-in for renderings
 *  too large to commit as golden files. */
inline uint64_t
Fnv1a64(const std::string& bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Expects @p rendered to equal tests/golden/@p name byte for byte. */
inline void
CheckGolden(const std::string& name, const std::string& rendered)
{
    const std::string path =
        std::string(SINAN_REPO_ROOT) + "/tests/golden/" + name;
    if (std::getenv("SINAN_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path
                    << " missing; regenerate with SINAN_REGEN_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(rendered, golden.str())
        << name
        << " drifted from the committed golden file. If the change is "
           "intentional, rerun with SINAN_REGEN_GOLDEN=1 and commit the "
           "diff.";
}

} // namespace testutil
} // namespace sinan

#endif // SINAN_TESTS_GOLDEN_UTIL_H
