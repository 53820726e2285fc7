#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "kernel/perf_model.hpp"
#include "memory_probe.hpp"
#include "ml/serialize.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {
namespace {

TrainerOptions
tinyOptions()
{
    TrainerOptions opts;
    opts.corpusSize = 8;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    return opts;
}

/**
 * A saved model's two forests through RandomForest::load: the scalar
 * reading of the text, which loadRandomForest's arenas must agree with.
 */
TrainedForests
readForests(std::istream &is)
{
    std::string word;
    is >> word >> word >> word >> word; // gpupm-rf v1 features <n>
    is >> word >> word;                 // target time
    TrainedForests forests;
    forests.time = RandomForest::load(is);
    is >> word >> word; // target power
    forests.power = RandomForest::load(is);
    return forests;
}

TrainedForests
readForests(const std::string &text)
{
    std::istringstream is(text);
    return readForests(is);
}

std::string
saved(const TrainedForests &forests)
{
    std::ostringstream os;
    saveRandomForest(forests, os);
    return os.str();
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/**
 * @p loaded's raw forest outputs on @p rows equal RandomForest::predict
 * of @p forests bit for bit, through both the batched and the
 * single-row walk.
 */
void
expectSamePredictions(const RandomForestPredictor &loaded,
                      const TrainedForests &forests,
                      const std::vector<FeatureVector> &rows)
{
    std::vector<double> time_log(rows.size()), power(rows.size());
    loaded.predictRows(rows, time_log, power);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const double want_t = forests.time.predict(rows[i]);
        const double want_p = forests.power.predict(rows[i]);
        EXPECT_EQ(bits(time_log[i]), bits(want_t)) << "row " << i;
        EXPECT_EQ(bits(power[i]), bits(want_p)) << "row " << i;
        EXPECT_EQ(bits(loaded.timeFlat().predict(rows[i])), bits(want_t))
            << "row " << i;
        EXPECT_EQ(bits(loaded.powerFlat().predict(rows[i])),
                  bits(want_p))
            << "row " << i;
    }
}

/** Feature rows of a few corpus kernels over a spread of configs. */
std::vector<FeatureVector>
sampleRows()
{
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    std::vector<FeatureVector> rows;
    for (const auto &k : workload::trainingCorpus(4, 0xfeed)) {
        for (std::size_t ci = 0; ci < space.size(); ci += 7) {
            const auto &c = space.at(ci);
            rows.push_back(
                makeFeatures(model.counters(k, c, model.estimate(k, c)), c));
        }
    }
    return rows;
}

TEST(Serialize, RoundTripIsBitExact)
{
    const auto forests = trainRandomForests(tinyOptions());
    const RandomForestPredictor original(forests);
    std::stringstream buffer;
    saveRandomForest(forests, buffer);
    auto loaded = loadRandomForest(buffer);

    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto ks = workload::trainingCorpus(4, 0xfeed);
    for (const auto &k : ks) {
        for (std::size_t ci = 0; ci < space.size(); ci += 31) {
            const auto &c = space.at(ci);
            PredictionQuery q;
            const auto est = model.estimate(k, c);
            q.counters = model.counters(k, c, est);
            q.instructions = k.instructions();
            const auto a = original.predict(q, c);
            const auto b = loaded->predict(q, c);
            EXPECT_DOUBLE_EQ(a.time, b.time);
            EXPECT_DOUBLE_EQ(a.gpuPower, b.gpuPower);
        }
    }
}

TEST(Serialize, SecondRoundTripIdenticalText)
{
    const std::string text = saved(trainRandomForests(tinyOptions()));
    EXPECT_EQ(saved(readForests(text)), text);
}

TEST(Serialize, PreservesForestStructure)
{
    const auto forests = trainRandomForests(tinyOptions());
    std::stringstream buffer;
    saveRandomForest(forests, buffer);
    auto loaded = loadRandomForest(buffer);
    EXPECT_EQ(loaded->timeFlat().treeCount(), forests.time.treeCount());
    EXPECT_EQ(loaded->powerFlat().treeCount(), forests.power.treeCount());
    EXPECT_EQ(loaded->timeFlat().nodeCount(), forests.time.totalNodes());
    EXPECT_EQ(loaded->powerFlat().nodeCount(),
              forests.power.totalNodes());
}

TEST(Serialize, LoadedPredictionsMatchTrainedForestsBitForBit)
{
    // The loader streams trees into the arenas without ever holding a
    // RandomForest; what it serves must still be the trained forests'
    // predictions exactly, through the predictor's memoized batch, its
    // raw rows and the scalar reference, for finite rows and for rows
    // with a NaN or an infinity in any one feature.
    const auto forests = trainRandomForests(tinyOptions());
    const RandomForestPredictor trained(forests);
    std::stringstream buffer;
    saveRandomForest(forests, buffer);
    const auto loaded = loadRandomForest(buffer);

    std::vector<FeatureVector> rows = sampleRows();
    const std::size_t finite = rows.size();
    for (std::size_t f = 0; f < static_cast<std::size_t>(numFeatures);
         ++f) {
        for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
            FeatureVector row = rows[f % finite];
            row[f] = v;
            rows.push_back(row);
        }
    }
    expectSamePredictions(*loaded, forests, rows);
    expectSamePredictions(trained, forests, rows);

    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto &cfgs = space.all();
    std::vector<Prediction> a(cfgs.size()), b(cfgs.size());
    for (const auto &k : workload::trainingCorpus(3, 0xc0de)) {
        PredictionQuery q;
        q.counters = model.counters(k, cfgs[0], model.estimate(k, cfgs[0]));
        q.instructions = k.instructions();
        for (int repeat = 0; repeat < 2; ++repeat) {
            trained.predictBatch(q, cfgs, a);
            loaded->predictBatch(q, cfgs, b);
            for (std::size_t i = 0; i < cfgs.size(); ++i) {
                EXPECT_EQ(bits(a[i].time), bits(b[i].time));
                EXPECT_EQ(bits(a[i].gpuPower), bits(b[i].gpuPower));
            }
        }
    }
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream s("not a model at all");
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "gpupm-rf");
}

TEST(Serialize, RejectsWrongVersion)
{
    std::stringstream s("gpupm-rf v9\nfeatures 17\n");
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "gpupm-rf");
}

TEST(Serialize, RejectsFeatureMismatch)
{
    std::stringstream s("gpupm-rf v1\nfeatures 3\n");
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "retrain");
}

TEST(Serialize, RejectsTruncatedStream)
{
    const std::string text = saved(trainRandomForests(tinyOptions()));
    std::stringstream truncated(text.substr(0, text.size() / 2));
    EXPECT_EXIT(loadRandomForest(truncated),
                testing::ExitedWithCode(1), ".*");
}

TEST(Serialize, RejectsCorruptCountsWithoutAllocating)
{
    // A count from the file sizes nothing before its records arrive:
    // each of these dies with a loader fatal instead of a bad_alloc
    // or length_error abort.
    std::stringstream huge_tree("tree 4000000000 16\n-1 0 -1 -1 1\n");
    EXPECT_EXIT(DecisionTree::load(huge_tree),
                testing::ExitedWithCode(1), "truncated tree node list");
    std::stringstream huge_forest(
        "forest trees 99999999999999\ntree 1 0\n-1 0 -1 -1 1\n");
    EXPECT_EXIT(RandomForest::load(huge_forest),
                testing::ExitedWithCode(1), "malformed tree header");
    std::stringstream huge_arena(huge_forest.str());
    EXPECT_EXIT(FlatForest::load(huge_arena), testing::ExitedWithCode(1),
                "malformed tree header");
    std::stringstream negative("tree -3 0\n-1 0 -1 -1 1\n");
    EXPECT_EXIT(DecisionTree::load(negative), testing::ExitedWithCode(1),
                "malformed tree header");
    std::stringstream no_nodes("tree 0 0\n");
    EXPECT_EXIT(DecisionTree::load(no_nodes), testing::ExitedWithCode(1),
                "zero nodes");
    std::stringstream no_trees("forest trees 0\n");
    EXPECT_EXIT(RandomForest::load(no_trees), testing::ExitedWithCode(1),
                "zero trees");
    std::stringstream no_arena_trees("forest trees 0\n");
    EXPECT_EXIT(FlatForest::load(no_arena_trees),
                testing::ExitedWithCode(1), "zero trees");
}

/** A two-forest model whose first tree is @p time_tree. */
std::string
modelWithTimeTree(std::string_view time_tree)
{
    return "gpupm-rf v1\nfeatures " + std::to_string(numFeatures) +
           "\ntarget time\nforest trees 1\n" + std::string(time_tree) +
           "target power\nforest trees 1\ntree 1 0\n-1 0 -1 -1 1\n";
}

TEST(Serialize, RejectsSelfLoopChild)
{
    // Node 0 is its own child. Loaded, FlatForest::compile's
    // breadth-first renumbering would re-enqueue it until memory ran
    // out.
    const std::string self_loop = "tree 1 0\n0 0.5 0 0 0\n";
    std::stringstream tree(self_loop);
    EXPECT_EXIT(DecisionTree::load(tree), testing::ExitedWithCode(1),
                "reached twice");
    std::stringstream model(modelWithTimeTree(self_loop));
    EXPECT_EXIT(loadRandomForest(model), testing::ExitedWithCode(1),
                "reached twice");
}

TEST(Serialize, RejectsSharedChild)
{
    std::stringstream s("tree 3 1\n0 0.5 1 1 0\n-1 0 -1 -1 1\n"
                        "-1 0 -1 -1 2\n");
    EXPECT_EXIT(DecisionTree::load(s), testing::ExitedWithCode(1),
                "reached twice");
}

TEST(Serialize, RejectsUnreachableNodes)
{
    // A leaf root leaves the other two nodes dangling.
    std::stringstream leaf_root("tree 3 0\n-1 0 -1 -1 1\n"
                                "-1 0 -1 -1 2\n-1 0 -1 -1 3\n");
    EXPECT_EXIT(DecisionTree::load(leaf_root),
                testing::ExitedWithCode(1), "2 of 3 nodes unreachable");
    // A self-loop off to the side of a well-formed tree.
    std::stringstream side_loop("tree 4 1\n0 0.5 1 2 0\n-1 0 -1 -1 1\n"
                                "-1 0 -1 -1 2\n0 0.5 3 3 0\n");
    EXPECT_EXIT(DecisionTree::load(side_loop),
                testing::ExitedWithCode(1), "1 of 4 nodes unreachable");
}

/**
 * A model whose time tree is a chain of @p levels splits on feature 0:
 * split i has threshold i + 0.5 and a leaf of value i on its left, so
 * a row with f[0] = k (k <= levels) stops at depth k and predicts k.
 */
std::string
chainModel(std::size_t levels)
{
    std::string tree = "tree " + std::to_string(2 * levels + 1) + ' ' +
                       std::to_string(levels) + '\n';
    for (std::size_t i = 0; i < levels; ++i) {
        tree += "0 " + std::to_string(i) + ".5 " +
                std::to_string(2 * i + 1) + ' ' +
                std::to_string(2 * i + 2) + " 0\n-1 0 -1 -1 " +
                std::to_string(i) + '\n';
    }
    tree += "-1 0 -1 -1 " + std::to_string(levels) + '\n';
    return modelWithTimeTree(tree);
}

TEST(Serialize, RejectsTreesDeeperThanTheWalkDepth)
{
    // Walk depths are 16-bit: a 70,000-level chain would wrap its walk
    // count and read past the arena instead of reaching its leaves.
    std::stringstream s(chainModel(70000));
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "tree deeper than 65535 levels");
}

TEST(Serialize, DeepestWalkableTreeMatchesRandomForest)
{
    const std::string text = chainModel(65535);
    std::istringstream s(text);
    const auto loaded = loadRandomForest(s);
    const auto forests = readForests(text);
    const FlatForest &flat = loaded->timeFlat();
    for (const double k : {0.0, 1.0, 40000.0, 65534.0, 65535.0, 1e9}) {
        FeatureVector row{};
        row[0] = k;
        EXPECT_EQ(bits(flat.predict(row)), bits(forests.time.predict(row)))
            << "f[0] = " << k;
        EXPECT_EQ(flat.predict(row), std::min(k, 65535.0));
    }
}

/** Every tree of a model text as `>>` reads it: the reference parse. */
struct ReferenceTree
{
    int depth = 0;
    std::vector<DecisionTree::Node> nodes;
};

std::vector<std::vector<ReferenceTree>>
referenceParse(const std::string &text)
{
    std::istringstream is(text);
    std::string word;
    is >> word >> word >> word >> word; // gpupm-rf v1 features <n>
    std::vector<std::vector<ReferenceTree>> forests(2);
    for (auto &forest : forests) {
        std::size_t trees = 0;
        is >> word >> word >> word >> word >> trees;
        forest.resize(trees);
        for (auto &tree : forest) {
            std::size_t count = 0;
            is >> word >> count >> tree.depth;
            tree.nodes.resize(count);
            for (auto &n : tree.nodes) {
                is >> n.feature >> n.threshold >> n.left >> n.right >>
                    n.value;
            }
        }
    }
    EXPECT_FALSE(is.fail()) << "reference parse failed";
    return forests;
}

/** Compare @p forest node by node, doubles by their bits. */
void
expectSameTrees(const RandomForest &forest,
                const std::vector<ReferenceTree> &reference)
{
    ASSERT_EQ(forest.treeCount(), reference.size());
    for (std::size_t t = 0; t < reference.size(); ++t) {
        const auto &nodes = forest.trees()[t].nodes();
        const auto &want = reference[t].nodes;
        EXPECT_EQ(forest.trees()[t].depth(), reference[t].depth);
        ASSERT_EQ(nodes.size(), want.size()) << "tree " << t;
        for (std::size_t i = 0; i < want.size(); ++i) {
            const auto &a = nodes[i];
            const auto &b = want[i];
            const auto bits = [](double d) {
                return std::bit_cast<std::uint64_t>(d);
            };
            EXPECT_TRUE(a.feature == b.feature && a.left == b.left &&
                        a.right == b.right &&
                        bits(a.threshold) == bits(b.threshold) &&
                        bits(a.value) == bits(b.value))
                << "tree " << t << " node " << i;
        }
    }
}

TEST(Serialize, LoadMatchesStreamExtractionBitForBit)
{
    // DecisionTree::load is the one node parser: pinned here through
    // RandomForest::load, and the predictor loader's arenas serve the
    // forests it reads.
    const std::string text = saved(trainRandomForests(tinyOptions()));
    const auto reference = referenceParse(text);
    const auto forests = readForests(text);
    expectSameTrees(forests.time, reference[0]);
    expectSameTrees(forests.power, reference[1]);
    std::istringstream is(text);
    expectSamePredictions(*loadRandomForest(is), forests, sampleRows());
}

TEST(Serialize, ExtremeDoublesMatchStreamExtraction)
{
    // A complete tree whose thresholds and leaf values are written the
    // way save() writes them (max_digits10): special values first,
    // then finite doubles drawn from random bit patterns, so every
    // exponent range, subnormals included, meets both parsers.
    std::vector<double> values = {
        0.0, -0.0, 0.1, -2.5, 1e-300, -1e300,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon()};
    Pcg32 rng(0x10ad);
    const std::size_t internal = 511, count = 2 * internal + 1;
    while (values.size() < count) {
        const std::uint64_t bits =
            (static_cast<std::uint64_t>(rng.nextU32()) << 32) |
            rng.nextU32();
        const double v = std::bit_cast<double>(bits);
        if (std::isfinite(v))
            values.push_back(v);
    }
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "gpupm-rf v1\nfeatures " << numFeatures
       << "\ntarget time\nforest trees 1\ntree " << count << " 9\n";
    for (std::size_t i = 0; i < count; ++i) {
        if (i < internal) {
            os << i % numFeatures << ' ' << values[i] << ' ' << 2 * i + 1
               << ' ' << 2 * i + 2 << " 0\n";
        } else {
            os << "-1 0 -1 -1 " << values[i] << '\n';
        }
    }
    os << "target power\nforest trees 1\ntree 1 0\n-1 0 -1 -1 1\n";
    const std::string text = os.str();
    const auto reference = referenceParse(text);
    const auto forests = readForests(text);
    expectSameTrees(forests.time, reference[0]);
    expectSameTrees(forests.power, reference[1]);
    // Rows on either side of, and at, every threshold.
    std::vector<FeatureVector> rows;
    for (std::size_t i = 0; i < internal; ++i) {
        for (const double v : {values[i], std::nextafter(values[i], 1e308),
                               std::nextafter(values[i], -1e308)}) {
            FeatureVector row{};
            row.fill(v);
            rows.push_back(row);
        }
    }
    std::istringstream is(text);
    expectSamePredictions(*loadRandomForest(is), forests, rows);
}

std::string
replaceAll(std::string s, std::string_view from, std::string_view to)
{
    for (std::size_t at = s.find(from); at != std::string::npos;
         at = s.find(from, at + to.size())) {
        s.replace(at, from.size(), to);
    }
    return s;
}

TEST(Serialize, AcceptsWhitespaceVariants)
{
    const auto forests = trainRandomForests(tinyOptions());
    const std::string text = saved(forests);
    const auto rows = sampleRows();
    ASSERT_EQ(text.back(), '\n');
    const std::vector<std::string> variants = {
        replaceAll(text, "\n", "\r\n"),
        replaceAll(text, " ", "\t"),
        replaceAll(replaceAll(text, " ", "   "), "\n", " \n\n  "),
        text.substr(0, text.size() - 1),
    };
    for (std::size_t v = 0; v < variants.size(); ++v) {
        EXPECT_EQ(saved(readForests(variants[v])), text) << "variant " << v;
        std::istringstream is(variants[v]);
        expectSamePredictions(*loadRandomForest(is), forests, rows);
    }
}

TEST(Serialize, RejectsNonFiniteAndMalformedNumbers)
{
    const auto model = [](std::string_view threshold,
                          std::string_view value) {
        return modelWithTimeTree("tree 3 1\n0 " + std::string(threshold) +
                                 " 1 2 0\n-1 0 -1 -1 " +
                                 std::string(value) +
                                 "\n-1 0 -1 -1 2\n");
    };
    {
        std::stringstream good(model("0.5", "1.5"));
        EXPECT_EQ(loadRandomForest(good)->timeFlat().nodeCount(), 3U);
    }
    for (const char *bad : {"nan", "inf", "-inf", "1e999", "0.5x"}) {
        std::stringstream as_threshold(model(bad, "1.5"));
        EXPECT_EXIT(loadRandomForest(as_threshold),
                    testing::ExitedWithCode(1), "truncated|non-finite")
            << bad;
        std::stringstream as_value(model("0.5", bad));
        EXPECT_EXIT(loadRandomForest(as_value), testing::ExitedWithCode(1),
                    "truncated|non-finite")
            << bad;
    }
}

TEST(Serialize, ConsumesExactlyOneModel)
{
    // Two models back to back, then a word of something else: each
    // load must stop right after its own last token.
    const auto first = trainRandomForests(tinyOptions());
    auto opts = tinyOptions();
    opts.forest.numTrees = 3;
    opts.forest.seed = 0xbac4;
    const auto second = trainRandomForests(opts);
    const std::string a = saved(first), b = saved(second);
    const std::string text = a + b + "tail";

    std::istringstream both(text);
    const auto load_first = loadRandomForest(both);
    const auto load_second = loadRandomForest(both);
    const auto rows = sampleRows();
    expectSamePredictions(*load_first, first, rows);
    expectSamePredictions(*load_second, second, rows);
    std::string rest;
    EXPECT_TRUE(both >> rest);
    EXPECT_EQ(rest, "tail");

    // The scalar reading stops in the same places.
    std::istringstream scalar(text);
    EXPECT_EQ(saved(readForests(scalar)), a);
    EXPECT_EQ(saved(readForests(scalar)), b);
    EXPECT_TRUE(scalar >> rest);
    EXPECT_EQ(rest, "tail");

    // Tree by tree, too: the byte after a tree is still the stream's.
    std::stringstream tree("tree 1 0\n-1 0 -1 -1 1.5\nnext");
    EXPECT_EQ(DecisionTree::load(tree).nodeCount(), 1U);
    EXPECT_EQ(tree.get(), '\n');
}

/**
 * Write a model of two forests of @p trees complete trees with
 * @p depth split levels each to @p path, a node at a time, thresholds
 * and leaf values drawn from @p seed and written as save() writes them.
 */
void
writeCompleteTreeModel(const std::string &path, std::size_t trees,
                       std::size_t depth, std::uint64_t seed)
{
    const std::size_t internal = (std::size_t{1} << depth) - 1;
    const std::size_t count = 2 * internal + 1;
    Pcg32 rng(seed);
    std::ofstream os(path);
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "gpupm-rf v1\nfeatures " << numFeatures << '\n';
    for (const char *target : {"time", "power"}) {
        os << "target " << target << "\nforest trees " << trees << '\n';
        for (std::size_t t = 0; t < trees; ++t) {
            os << "tree " << count << ' ' << depth << '\n';
            for (std::size_t i = 0; i < count; ++i) {
                if (i < internal) {
                    os << rng.nextBounded(numFeatures) << ' '
                       << rng.uniform(-1.0, 1.0) << ' ' << 2 * i + 1 << ' '
                       << 2 * i + 2 << " 0\n";
                } else {
                    os << "-1 0 -1 -1 " << rng.uniform(0.0, 50.0) << '\n';
                }
            }
        }
    }
    ASSERT_TRUE(os.good());
}

TEST(Serialize, LoadPeaksAtTheArenaSize)
{
    // The loader holds one tree beyond the arenas it fills, and the
    // arenas grow in place, so loading raises the resident high-water
    // mark by about an arena's 24 B per node; holding the parsed
    // forests as well (32 B per node) took it past 52. Measured in a
    // child so the child's high-water mark starts at its resident set.
    if (!test::kGlibcMalloc)
        GTEST_SKIP() << test::kNotGlibcMalloc;
    // Trees of the default `gpupm train` model's size (10k-14k nodes).
    constexpr std::size_t trees = 12, depth = 13;
    constexpr std::size_t nodes = 2 * trees * ((std::size_t{2} << depth) - 1);
    static_assert(nodes >= 300000);
    const std::string path =
        testing::TempDir() + "gpupm_serialize_load_peak.rf";
    writeCompleteTreeModel(path, trees, depth, 0x9ea4);
    EXPECT_EXIT(
        {
            const std::size_t rss = test::procStatusBytes("VmRSS");
            std::ifstream is(path);
            const auto loaded = loadRandomForest(is);
            const std::size_t peak = test::procStatusBytes("VmHWM");
            const double per_node =
                (static_cast<double>(peak) - static_cast<double>(rss)) /
                static_cast<double>(nodes);
            std::fprintf(stderr, "high-water mark grew %.1f B/node\n",
                         per_node);
            const bool whole = loaded->timeFlat().nodeCount() +
                                   loaded->powerFlat().nodeCount() ==
                               nodes;
            std::_Exit(whole && per_node < 32.0 ? 0 : 1);
        },
        testing::ExitedWithCode(0), "B/node");
    std::remove(path.c_str());
}

TEST(Serialize, TreeSaveRequiresFit)
{
    DecisionTree t;
    std::stringstream s;
    EXPECT_DEATH(t.save(s), "unfitted");
    RandomForest rf;
    EXPECT_DEATH(rf.save(s), "unfitted");
}

} // namespace
} // namespace gpupm::ml
