/**
 * @file
 * Portable text serialization for trained models.
 *
 * The paper trains its Random Forest offline and ships it to the
 * runtime; this module provides the equivalent artifact handling:
 * save the trained forests to a version-tagged text stream and load
 * them back as a RandomForestPredictor whose predictions are the
 * trained forests' bit for bit, so deployments do not retrain.
 *
 * Format (line oriented, locale independent):
 *   gpupm-rf v1
 *   features <numFeatures>
 *   target time
 *   forest trees <n>
 *   tree <nodes> <depth>
 *   <feature> <threshold> <left> <right> <value>   (one per node)
 *   ...                                            (n trees)
 *   target power
 *   forest trees <n>
 *   ...
 *
 * Loading reads tokens separated by any run of ASCII whitespace (so
 * CRLF line ends load), each number a whole std::from_chars token, and
 * consumes exactly the bytes of the model, so whatever follows it in
 * the stream is left unread. A tree's child links must reach every
 * node exactly once from node 0.
 *
 * Each forest section is what RandomForest::save writes, so
 * RandomForest::load reads it back as a scalar forest. The predictor
 * loader does not: it streams every tree into the FlatForest arenas it
 * serves from (FlatForest::load), and the forests are never held whole.
 */

#pragma once

#include <iosfwd>
#include <memory>

#include "ml/trainer.hpp"

namespace gpupm::ml {

/** Write trained forests; fatal on stream failure. */
void saveRandomForest(const TrainedForests &forests, std::ostream &os);

/**
 * Read a model previously written by saveRandomForest into a
 * predictor.
 * Fatal on malformed input (bad token, truncation, non-finite number,
 * child links that do not form a tree) or feature-count mismatch (a
 * model trained against a different feature schema must not be
 * loaded silently).
 */
std::unique_ptr<RandomForestPredictor> loadRandomForest(std::istream &is);

} // namespace gpupm::ml
