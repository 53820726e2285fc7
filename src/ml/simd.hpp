/**
 * @file
 * Row-count and engine-name shim for the decision-serving benchmark.
 *
 * perfbench/cpp/perfbench.cpp reads forest rows through simdRowStats()
 * and stamps `toString(resolveSimdPath(defaultSimdMode()))` into its
 * output as `simd_path`. FlatForest has one engine, the float64 walk,
 * so every value here is fixed: one mode, one path named "scalar", and
 * every row counted under `scalar`. Only perfbench and the row-counter
 * test include this header; it goes once perfbench reads
 * forestRowsWalked() (flat_forest.hpp) directly.
 */

#pragma once

#include <cstdint>

#include "ml/flat_forest.hpp"

namespace gpupm::ml {

enum class SimdMode : std::uint8_t { Scalar };
enum class SimdPath : std::uint8_t { Float64 };

inline SimdMode
defaultSimdMode()
{
    return SimdMode::Scalar;
}

inline SimdPath
resolveSimdPath(SimdMode)
{
    return SimdPath::Float64;
}

inline const char *
toString(SimdPath)
{
    return "scalar";
}

struct SimdRowStats
{
    std::uint64_t scalar = 0;   ///< forestRowsWalked().
    std::uint64_t fallback = 0; ///< Always 0.
    std::uint64_t avx2 = 0;     ///< Always 0.
};

inline SimdRowStats
simdRowStats()
{
    return {forestRowsWalked(), 0, 0};
}

} // namespace gpupm::ml
