/**
 * @file
 * Loads the trained models bundled under bench_cache/ (hotel, social)
 * for tests that exercise the real cached-trunk Evaluate path without
 * training. SINAN_REPO_ROOT is the source root, defined for every test
 * by sinan_test() in tests/CMakeLists.txt.
 */
#ifndef SINAN_TESTS_BUNDLED_MODEL_H
#define SINAN_TESTS_BUNDLED_MODEL_H

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "harness/harness.h"
#include "models/hybrid.h"

namespace sinan {
namespace testutil {

/** Loads bench_cache/@p name.model through LoadSinanModel, as the
 *  bench cache-hit path and sinan_sim --model do; nullptr when the
 *  file is absent. */
inline std::unique_ptr<HybridModel>
LoadBundledModel(const Application& app, const std::string& name)
{
    const std::string path =
        std::string(SINAN_REPO_ROOT) + "/bench_cache/" + name + ".model";
    if (!std::filesystem::exists(path))
        return nullptr;
    std::ifstream in(path, std::ios::binary);
    return LoadSinanModel(app, in);
}

} // namespace testutil
} // namespace sinan

#endif // SINAN_TESTS_BUNDLED_MODEL_H
