/**
 * @file
 * Loads the trained models bundled under bench_cache/ (hotel, social)
 * for tests that exercise the real cached-trunk Evaluate path without
 * training. Tests including this define SINAN_REPO_ROOT.
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

/** Loads bench_cache/@p name.model exactly like the bench cache-hit
 *  path (same FeatureConfig recipe and hybrid hyper-parameters);
 *  nullptr when the file is absent. */
inline std::unique_ptr<HybridModel>
LoadBundledModel(const Application& app, const std::string& name)
{
    const std::string path =
        std::string(SINAN_REPO_ROOT) + "/bench_cache/" + name + ".model";
    if (!std::filesystem::exists(path))
        return nullptr;
    auto model = std::make_unique<HybridModel>(
        AppFeatures(app, PipelineConfig{}), DefaultHybridConfig(), 1);
    std::ifstream in(path, std::ios::binary);
    model->Load(in);
    return model;
}

} // namespace testutil
} // namespace sinan

#endif // SINAN_TESTS_BUNDLED_MODEL_H
