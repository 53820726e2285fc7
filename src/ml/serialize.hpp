/**
 * @file
 * Portable text serialization for trained models.
 *
 * The paper trains its Random Forest offline and ships it to the
 * runtime; this module provides the equivalent artifact handling:
 * save a trained RandomForestPredictor to a version-tagged text stream
 * and load it back, bit-exactly, so deployments do not retrain.
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
 */

#pragma once

#include <iosfwd>
#include <memory>

#include "ml/trainer.hpp"

namespace gpupm::ml {

/** Write a trained predictor; fatal on stream failure. */
void saveRandomForest(const RandomForestPredictor &predictor,
                      std::ostream &os);

/**
 * Read a predictor previously written by saveRandomForest.
 * Fatal on malformed input (bad token, truncation, non-finite number,
 * child links that do not form a tree) or feature-count mismatch (a
 * model trained against a different feature schema must not be
 * loaded silently).
 */
std::unique_ptr<RandomForestPredictor> loadRandomForest(std::istream &is);

} // namespace gpupm::ml
